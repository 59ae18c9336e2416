package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Disk is a crash-safe append-only segment log implementing
// Store[[]byte]: records are (key, value) pairs appended to the
// active segment, an in-memory index maps each key's digest to its
// newest record, and the index is rebuilt on open by reading each
// segment front to back in one sequential pass. Every record carries
// a CRC32 (Castagnoli) over its header and payload, so a torn write —
// a crash mid-append — is detected on the next open and the tail is
// truncated at the last intact record rather than trusted. A byte
// budget is enforced at segment granularity: when the log exceeds
// MaxBytes the oldest sealed segment is either compacted (its live
// records rewritten to the tail, its file dropped) when mostly dead,
// or evicted wholesale when mostly live — cache semantics make
// dropping old entries safe.
//
// Durability is batched: Put appends to the OS page cache and a
// background flusher fsyncs the active segment every FlushInterval,
// so Put never waits on the disk. A crash can lose the last interval
// of writes but never corrupts what a previous fsync covered.
type Disk struct {
	dir        string
	maxBytes   int64
	segMax     int64
	flushEvery time.Duration

	// seeds key the index digests; drawn per Disk and never persisted.
	seeds [2]maphash.Seed

	mu         sync.Mutex
	index      map[keyID]recordLoc
	segs       map[int]*segment
	segIDs     []int // ascending; last is the active (append) segment
	totalBytes int64
	dirty      bool
	closed     bool

	flushStop chan struct{}
	flushDone chan struct{}
	closeOnce sync.Once

	hits, readErrors, truncated         uint64
	compactions, segsDropped, evictions uint64
}

// Record layout, big-endian:
//
//	crc    uint32  over keyLen..value
//	keyLen uint16
//	valLen uint32
//	key    keyLen bytes
//	value  valLen bytes
const recordHeaderSize = 10

// maxKeyLen bounds keys to what a uint16 length can carry.
const maxKeyLen = 1<<16 - 1

// scanBufSize bounds the buffer open reads segments through. A
// record's header and key always fit (keys are at most 64 KiB); larger
// values stream through it in chunks.
const scanBufSize = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errWrongKey reports a record whose key is not the one the index
// entry was looked up or stored under: a digest collision reads as a
// miss, never as another key's value.
var errWrongKey = errors.New("store: index points at wrong key")

// keyID is the index key: a 128-bit digest of a record key under the
// Disk's two seeds. It holds no pointer, so open and Put allocate no
// string per key and the GC never scans the index.
type keyID struct{ lo, hi uint64 }

// keyOf digests a key on the lookup and Put paths.
func (d *Disk) keyOf(key string) keyID {
	return keyID{maphash.String(d.seeds[0], key), maphash.String(d.seeds[1], key)}
}

// keyOfBytes digests a key in place in a read buffer; it equals keyOf
// of the same bytes.
func (d *Disk) keyOfBytes(key []byte) keyID {
	return keyID{maphash.Bytes(d.seeds[0], key), maphash.Bytes(d.seeds[1], key)}
}

type recordLoc struct {
	segID int
	off   int64
	size  int64
}

type segment struct {
	id        int
	path      string
	f         *os.File
	size      int64 // bytes appended (the tail offset)
	liveBytes int64 // bytes of records the index still points at
	liveKeys  int
}

// DiskOptions tunes the segment log.
type DiskOptions struct {
	// MaxBytes caps the total size of all segment files; 0 means
	// unlimited. Exceeding it triggers segment-granularity GC.
	MaxBytes int64
	// SegmentMaxBytes is the roll threshold of the active segment.
	// 0 picks a default: MaxBytes/8 clamped to [64 KiB, 64 MiB].
	SegmentMaxBytes int64
	// FlushInterval is the fsync batching period. 0 picks the 100 ms
	// default; negative fsyncs synchronously on every Put (tests).
	FlushInterval time.Duration
}

const (
	defaultFlushInterval = 100 * time.Millisecond
	minSegmentBytes      = 64 << 10
	maxSegmentBytes      = 64 << 20
)

// OpenDisk opens (creating if needed) a segment log in dir and
// rebuilds the key index from the segments on disk, truncating any
// torn or corrupt tail it finds.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty store dir", ErrBadStore)
	}
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("%w: max bytes=%d", ErrBadStore, opts.MaxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	segMax := opts.SegmentMaxBytes
	if segMax <= 0 {
		segMax = opts.MaxBytes / 8
		if segMax < minSegmentBytes {
			segMax = minSegmentBytes
		}
		if segMax > maxSegmentBytes {
			segMax = maxSegmentBytes
		}
	}
	flush := opts.FlushInterval
	if flush == 0 {
		flush = defaultFlushInterval
	}
	d := &Disk{
		dir:        dir,
		maxBytes:   opts.MaxBytes,
		segMax:     segMax,
		flushEvery: flush,
		seeds:      [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
		index:      make(map[keyID]recordLoc),
		segs:       make(map[int]*segment),
	}
	if err := d.load(); err != nil {
		d.closeFiles()
		return nil, err
	}
	if len(d.segIDs) == 0 {
		if _, err := d.addSegment(1); err != nil {
			return nil, err
		}
	}
	if d.flushEvery > 0 {
		d.flushStop = make(chan struct{})
		d.flushDone = make(chan struct{})
		go d.flusher()
	}
	return d, nil
}

// segPath names segment id's file.
func (d *Disk) segPath(id int) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%08d.log", id))
}

// load scans the existing segments in id order, rebuilding the index.
// One buffer serves every segment.
func (d *Disk) load() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: read dir: %w", err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if n, err := fmt.Sscanf(e.Name(), "seg-%08d.log", &id); n == 1 && err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var br *bufio.Reader
	for _, id := range ids {
		seg, err := d.addSegment(id)
		if err != nil {
			return err
		}
		if br == nil {
			br = bufio.NewReaderSize(seg.f, scanBufSize)
		}
		if err := d.scanSegment(seg, br); err != nil {
			return err
		}
	}
	return nil
}

// addSegment opens (creating if absent) segment id and appends it as
// the new active segment.
func (d *Disk) addSegment(id int) (*segment, error) {
	path := d.segPath(id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	d.segs[id] = seg
	d.segIDs = append(d.segIDs, id)
	return seg, nil
}

// active returns the append segment.
func (d *Disk) active() *segment {
	return d.segs[d.segIDs[len(d.segIDs)-1]]
}

// scanSegment replays one segment into the index, reading it front to
// back through br. The first record that fails to parse or verify — a
// torn tail after a crash, or bitrot — truncates the segment there:
// the intact prefix is trusted, the rest is dropped.
func (d *Disk) scanSegment(seg *segment, br *bufio.Reader) error {
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat segment: %w", err)
	}
	fileSize := info.Size()
	br.Reset(seg.f)
	var off int64
	for off < fileSize {
		id, size, ok := d.scanRecord(br, fileSize-off)
		if !ok {
			d.truncated++
			if err := seg.f.Truncate(off); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			break
		}
		d.indexRecord(id, recordLoc{segID: seg.id, off: off, size: size}, seg)
		off += size
	}
	seg.size = off
	d.totalBytes += off
	return nil
}

// scanRecord consumes the record at br's position, remain bytes before
// the end of its segment, and returns its key digest and size. ok is
// false for a short header, a zero-length key, a record running past
// the end of the segment, a read error, or a CRC mismatch.
func (d *Disk) scanRecord(br *bufio.Reader, remain int64) (id keyID, size int64, ok bool) {
	if remain < recordHeaderSize {
		return keyID{}, 0, false
	}
	hdr, err := br.Peek(recordHeaderSize)
	if err != nil {
		return keyID{}, 0, false
	}
	want := binary.BigEndian.Uint32(hdr[0:4])
	keyLen := int(binary.BigEndian.Uint16(hdr[4:6]))
	valLen := int64(binary.BigEndian.Uint32(hdr[6:10]))
	size = recordHeaderSize + int64(keyLen) + valLen
	if keyLen == 0 || size > remain {
		return keyID{}, 0, false
	}
	head, err := br.Peek(recordHeaderSize + keyLen)
	if err != nil {
		return keyID{}, 0, false
	}
	crc := crc32.Checksum(head[4:], crcTable)
	id = d.keyOfBytes(head[recordHeaderSize:])
	// Discarding bytes a Peek just returned cannot fail.
	_, _ = br.Discard(len(head))
	for left := valLen; left > 0; {
		chunk, err := br.Peek(int(min(left, scanBufSize)))
		if err != nil {
			return keyID{}, 0, false
		}
		crc = crc32.Update(crc, crcTable, chunk)
		_, _ = br.Discard(len(chunk))
		left -= int64(len(chunk))
	}
	if crc != want {
		return keyID{}, 0, false
	}
	return id, size, true
}

// indexRecord points id at loc, retiring any older record.
func (d *Disk) indexRecord(id keyID, loc recordLoc, seg *segment) {
	if old, ok := d.index[id]; ok {
		if prev := d.segs[old.segID]; prev != nil {
			prev.liveBytes -= old.size
			prev.liveKeys--
		}
	}
	d.index[id] = loc
	seg.liveBytes += loc.size
	seg.liveKeys++
}

// Get returns the newest value stored for key. Read or verification
// failures are served as misses (counted in Stats), never as errors:
// the caller can always recompute a cache entry.
func (d *Disk) Get(key string) ([]byte, bool) {
	id := d.keyOf(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false
	}
	loc, ok := d.index[id]
	if !ok {
		return nil, false
	}
	rec, err := d.readRecord(loc)
	if err == nil && string(recordKey(rec)) != key {
		err = errWrongKey
	}
	if err != nil {
		d.readErrors++
		return nil, false
	}
	d.hits++
	return rec[recordHeaderSize+len(key):], true
}

// readRecord fetches one whole record and verifies its CRC and that
// its header agrees with the index's size. Called with d.mu held.
func (d *Disk) readRecord(loc recordLoc) ([]byte, error) {
	seg := d.segs[loc.segID]
	if seg == nil {
		return nil, fmt.Errorf("store: segment %d gone", loc.segID)
	}
	rec := make([]byte, loc.size)
	if _, err := seg.f.ReadAt(rec, loc.off); err != nil {
		return nil, err
	}
	if crc32.Checksum(rec[4:], crcTable) != binary.BigEndian.Uint32(rec[0:4]) {
		return nil, errors.New("store: crc mismatch")
	}
	keyLen := int64(binary.BigEndian.Uint16(rec[4:6]))
	valLen := int64(binary.BigEndian.Uint32(rec[6:10]))
	if recordHeaderSize+keyLen+valLen != loc.size {
		return nil, errors.New("store: record size disagrees with index")
	}
	return rec, nil
}

// recordKey returns the key bytes of a record readRecord verified.
func recordKey(rec []byte) []byte {
	return rec[recordHeaderSize : recordHeaderSize+int(binary.BigEndian.Uint16(rec[4:6]))]
}

// encodeRecord lays out one record for key and value.
func encodeRecord(key string, value []byte) []byte {
	rec := make([]byte, recordHeaderSize+len(key)+len(value))
	binary.BigEndian.PutUint16(rec[4:6], uint16(len(key)))
	binary.BigEndian.PutUint32(rec[6:10], uint32(len(value)))
	copy(rec[recordHeaderSize:], key)
	copy(rec[recordHeaderSize+len(key):], value)
	binary.BigEndian.PutUint32(rec[0:4], crc32.Checksum(rec[4:], crcTable))
	return rec
}

// Put appends a record for key. The write lands in the OS page cache
// immediately (readable by Get); the fsync is batched.
func (d *Disk) Put(key string, value []byte) {
	if len(key) == 0 || len(key) > maxKeyLen {
		return
	}
	id, rec := d.keyOf(key), encodeRecord(key, value)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if err := d.appendRecord(id, rec); err != nil {
		d.readErrors++ // an append failure surfaces like a lost record
		return
	}
	d.gc()
	if d.flushEvery < 0 {
		_ = d.active().f.Sync()
	} else {
		d.dirty = true
	}
}

// appendRecord writes one encoded record to the active segment
// (rolling it at the size threshold) and indexes it under id. Called
// with d.mu held.
func (d *Disk) appendRecord(id keyID, rec []byte) error {
	size := int64(len(rec))
	seg := d.active()
	if seg.size > 0 && seg.size+size > d.segMax {
		var err error
		if seg, err = d.roll(); err != nil {
			return err
		}
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return err
	}
	loc := recordLoc{segID: seg.id, off: seg.size, size: size}
	seg.size += size
	d.totalBytes += size
	d.indexRecord(id, loc, seg)
	return nil
}

// roll seals the active segment (syncing it — sealed segments are
// never written again, so their contents are durable from here on)
// and opens the next one.
func (d *Disk) roll() (*segment, error) {
	_ = d.active().f.Sync()
	return d.addSegment(d.active().id + 1)
}

// gc enforces the byte budget at segment granularity: the oldest
// sealed segment is compacted (live records rewritten to the tail)
// when at most half its bytes are live, or evicted wholesale — its
// live keys dropped from the index — when mostly live. Either way the
// victim file is deleted, so each pass strictly shrinks the log.
// Called with d.mu held.
func (d *Disk) gc() {
	if d.maxBytes <= 0 {
		return
	}
	for d.totalBytes > d.maxBytes {
		if len(d.segIDs) == 1 {
			if d.active().size == 0 {
				return
			}
			if _, err := d.roll(); err != nil {
				return
			}
		}
		victim := d.segs[d.segIDs[0]]
		if 2*victim.liveBytes <= victim.size {
			if !d.compact(victim) {
				return
			}
			d.compactions++
		} else {
			d.evictSegment(victim)
		}
		d.dropSegment(victim)
		d.segsDropped++
	}
}

// compact rewrites victim's live records into the active segment.
// Each record is read back whole, its CRC checked and its key's digest
// matched against the index entry, then appended byte for byte.
func (d *Disk) compact(victim *segment) bool {
	type liveRec struct {
		id  keyID
		loc recordLoc
	}
	var live []liveRec
	for id, loc := range d.index {
		if loc.segID == victim.id {
			live = append(live, liveRec{id, loc})
		}
	}
	// Oldest-first keeps relative record order across compactions.
	sort.Slice(live, func(i, j int) bool { return live[i].loc.off < live[j].loc.off })
	for _, r := range live {
		rec, err := d.readRecord(r.loc)
		if err == nil && d.keyOfBytes(recordKey(rec)) != r.id {
			err = errWrongKey
		}
		if err != nil {
			// Unreadable record: drop the key rather than abort GC.
			d.readErrors++
			delete(d.index, r.id)
			victim.liveBytes -= r.loc.size
			victim.liveKeys--
			continue
		}
		if err := d.appendRecord(r.id, rec); err != nil {
			return false
		}
	}
	return true
}

// evictSegment drops every live key still pointing into victim.
func (d *Disk) evictSegment(victim *segment) {
	for id, loc := range d.index {
		if loc.segID == victim.id {
			delete(d.index, id)
			d.evictions++
		}
	}
	victim.liveBytes = 0
	victim.liveKeys = 0
}

// dropSegment removes victim's file and accounting. Called with d.mu
// held; victim must hold no live records.
func (d *Disk) dropSegment(victim *segment) {
	_ = victim.f.Close()
	_ = os.Remove(victim.path)
	d.totalBytes -= victim.size
	delete(d.segs, victim.id)
	for i, id := range d.segIDs {
		if id == victim.id {
			d.segIDs = append(d.segIDs[:i], d.segIDs[i+1:]...)
			break
		}
	}
}

// flusher batches fsyncs of the active segment.
func (d *Disk) flusher() {
	defer close(d.flushDone)
	ticker := time.NewTicker(d.flushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			d.mu.Lock()
			var f *os.File
			if d.dirty && !d.closed {
				d.dirty = false
				f = d.active().f
			}
			d.mu.Unlock()
			if f != nil {
				// Outside the lock: an fsync must not stall Gets and
				// Puts. If a roll or Close races us, syncing the old
				// handle is harmless (roll syncs seals itself) and a
				// closed handle just returns an error to ignore.
				_ = f.Sync()
			}
		case <-d.flushStop:
			return
		}
	}
}

// Sync forces an fsync of the active segment (tests and shutdown).
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.dirty = false
	return d.active().f.Sync()
}

// Len returns the number of live keys.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Stats snapshots the counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		DiskLen:          len(d.index),
		DiskHits:         d.hits,
		DiskBytes:        d.totalBytes,
		DiskSegments:     len(d.segIDs),
		Compactions:      d.compactions,
		SegmentsDropped:  d.segsDropped,
		DiskEvictions:    d.evictions,
		ReadErrors:       d.readErrors,
		TruncatedRecords: d.truncated,
	}
}

// Close stops the flusher, fsyncs, and closes every segment file.
// Idempotent and safe for concurrent callers.
func (d *Disk) Close() error {
	var err error
	d.closeOnce.Do(func() {
		if d.flushStop != nil {
			close(d.flushStop)
			<-d.flushDone
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		d.closed = true
		err = d.active().f.Sync()
		d.closeFiles()
	})
	return err
}

// closeFiles closes every open segment handle. Called with d.mu held
// (or before the store is shared).
func (d *Disk) closeFiles() {
	for _, seg := range d.segs {
		_ = seg.f.Close()
	}
}
