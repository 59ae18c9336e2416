package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// openDisk opens a store with the given options, failing the test on
// error and closing the store at cleanup.
func openDisk(t testing.TB, dir string, opts DiskOptions) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// testRecord is one (key, value) pair and the offset its record was
// written at.
type testRecord struct {
	key string
	val []byte
	off int64
}

// mixedRecords returns n records whose value sizes cycle from a few
// bytes to past the scan buffer, laid out back to back from offset 0.
func mixedRecords(n int) []testRecord {
	sizes := []int{7, 300, 4 << 10, 70 << 10, 33, scanBufSize + scanBufSize/3, 900}
	recs := make([]testRecord, n)
	var off int64
	for i := range recs {
		val := make([]byte, sizes[i%len(sizes)])
		for j := range val {
			val[j] = byte(i*31 + j*7)
		}
		recs[i] = testRecord{key: fmt.Sprintf("spec-%04d", i), val: val, off: off}
		off += int64(recordHeaderSize + len(recs[i].key) + len(val))
	}
	return recs
}

// putAll writes recs through a fresh store in dir with a segment
// threshold large enough to keep them in one segment, and closes it.
func putAll(t *testing.T, dir string, recs []testRecord) {
	t.Helper()
	d, err := OpenDisk(dir, DiskOptions{SegmentMaxBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		d.Put(r.key, r.val)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")); len(segs) != 1 {
		t.Fatalf("want one segment, have %v", segs)
	}
}

// TestDiskOpenRecordStraddlesBuffer reopens a segment several scan
// buffers long whose records of mixed sizes straddle the buffer's
// boundaries (some are larger than the buffer): every key must come
// back with byte-identical values.
func TestDiskOpenRecordStraddlesBuffer(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	recs := mixedRecords(24)
	straddles := 0
	for _, r := range recs {
		end := r.off + int64(recordHeaderSize+len(r.key)+len(r.val))
		if r.off/scanBufSize != (end-1)/scanBufSize {
			straddles++
		}
	}
	if straddles < 3 {
		t.Fatalf("only %d records straddle a %d-byte buffer boundary", straddles, scanBufSize)
	}
	putAll(t, dir, recs)

	d := openDisk(t, dir, DiskOptions{SegmentMaxBytes: 64 << 20})
	if d.Len() != len(recs) {
		t.Fatalf("reopened len=%d, want %d", d.Len(), len(recs))
	}
	for _, r := range recs {
		got, ok := d.Get(r.key)
		if !ok || !bytes.Equal(got, r.val) {
			t.Fatalf("Get(%s): %d bytes, %v; want %d identical bytes", r.key, len(got), ok, len(r.val))
		}
	}
	if st := d.Stats(); st.TruncatedRecords != 0 || st.ReadErrors != 0 {
		t.Fatalf("clean reopen counted damage: %+v", st)
	}
}

// TestDiskOpenCorruptMidSegment flips one byte in a record past the
// first scan buffer of a multi-buffer segment: open must truncate
// there, serve the intact prefix, and drop and count that record and
// everything after it.
func TestDiskOpenCorruptMidSegment(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	recs := mixedRecords(24)
	putAll(t, dir, recs)

	bad := -1
	for i, r := range recs {
		if r.off > scanBufSize && len(r.val) > 100 {
			bad = i
			break
		}
	}
	if bad < 0 || bad == len(recs)-1 {
		t.Fatal("no record in the middle of the segment past the first buffer")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipAt := recs[bad].off + int64(recordHeaderSize+len(recs[bad].key)+len(recs[bad].val)/2)
	b := []byte{0}
	if _, err := f.ReadAt(b, flipAt); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, flipAt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d := openDisk(t, dir, DiskOptions{SegmentMaxBytes: 64 << 20})
	if d.Len() != bad {
		t.Fatalf("reopened len=%d, want the %d records before the flip", d.Len(), bad)
	}
	for i, r := range recs {
		got, ok := d.Get(r.key)
		switch {
		case i < bad && (!ok || !bytes.Equal(got, r.val)):
			t.Errorf("intact record %s lost or altered", r.key)
		case i >= bad && ok:
			t.Errorf("record %s at or after the flip served", r.key)
		}
	}
	st := d.Stats()
	if st.TruncatedRecords != 1 || st.DiskBytes != recs[bad].off {
		t.Fatalf("truncation: %+v, want 1 truncation at offset %d", st, recs[bad].off)
	}
	if info, err := os.Stat(segs[0]); err != nil || info.Size() != recs[bad].off {
		t.Fatalf("segment not truncated at the bad record: %v %v", info, err)
	}
}

// TestDiskForgedIndexEntryMisses points one key's digest at another
// key's record: Get must miss rather than serve the other value, and
// compaction must drop the forged entry rather than rewrite the other
// record under it.
func TestDiskForgedIndexEntryMisses(t *testing.T) {
	t.Parallel()
	d := openDisk(t, t.TempDir(), DiskOptions{SegmentMaxBytes: 1 << 10, FlushInterval: -1})
	d.Put("a", []byte("value of a"))
	d.Put("b", []byte("value of b"))

	d.mu.Lock()
	d.index[d.keyOf("a")] = d.index[d.keyOf("b")]
	d.mu.Unlock()
	if v, ok := d.Get("a"); ok {
		t.Fatalf("forged entry served %q for a", v)
	}
	if v, ok := d.Get("b"); !ok || string(v) != "value of b" {
		t.Fatalf("b = %q, %v", v, ok)
	}
	if st := d.Stats(); st.ReadErrors != 1 {
		t.Fatalf("forged read not counted as a read error: %+v", st)
	}

	// Compact the segment holding both entries: b survives, the forged
	// a is dropped.
	d.mu.Lock()
	victim := d.active()
	if _, err := d.roll(); err != nil {
		d.mu.Unlock()
		t.Fatal(err)
	}
	ok := d.compact(victim)
	d.mu.Unlock()
	if !ok {
		t.Fatal("compaction failed")
	}
	if d.Len() != 1 {
		t.Fatalf("len=%d after compaction, want 1", d.Len())
	}
	if v, ok := d.Get("b"); !ok || string(v) != "value of b" {
		t.Fatalf("b after compaction = %q, %v", v, ok)
	}
	if _, ok := d.Get("a"); ok {
		t.Fatal("forged a survived compaction")
	}
}

// TestDiskCompactionAfterReopen rebuilds a log of mostly dead segments
// from disk, then lets GC compact it: every live key keeps its newest
// value.
func TestDiskCompactionAfterReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const keys, rounds = 16, 40
	d, err := OpenDisk(dir, DiskOptions{SegmentMaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	val := func(k, round int) []byte {
		return []byte(fmt.Sprintf("key %02d round %02d %0200d", k, round, 0))
	}
	for round := 0; round < rounds; round++ {
		for k := 0; k < keys; k++ {
			d.Put(fmt.Sprintf("key-%02d", k), val(k, round))
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir, DiskOptions{MaxBytes: 32 << 10, SegmentMaxBytes: 4 << 10, FlushInterval: -1})
	re.Put("trigger", []byte("gc"))
	st := re.Stats()
	if st.Compactions == 0 || st.DiskEvictions != 0 || st.DiskBytes > 32<<10 {
		t.Fatalf("want compaction under budget without eviction: %+v", st)
	}
	if re.Len() != keys+1 {
		t.Fatalf("len=%d, want %d", re.Len(), keys+1)
	}
	for k := 0; k < keys; k++ {
		got, ok := re.Get(fmt.Sprintf("key-%02d", k))
		if !ok || !bytes.Equal(got, val(k, rounds-1)) {
			t.Fatalf("key-%02d after compaction = %q, %v", k, got, ok)
		}
	}
}

// TestDiskEvictionAfterReopen rebuilds a log of fully live segments
// from disk, then pushes it one record past its budget: GC evicts the
// oldest segment's keys by digest and no others.
func TestDiskEvictionAfterReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const n, segMax = 64, 4 << 10
	val := func(i int) []byte { return []byte(fmt.Sprintf("%0500d", i)) }
	recSize := int64(recordHeaderSize + len("key-00") + len(val(0)))
	perSeg := int(segMax / recSize)
	d, err := OpenDisk(dir, DiskOptions{SegmentMaxBytes: segMax})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d.Put(fmt.Sprintf("key-%02d", i), val(i))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	total := n * recSize
	re := openDisk(t, dir, DiskOptions{MaxBytes: total + recSize - 1, SegmentMaxBytes: segMax, FlushInterval: -1})
	re.Put("key-new", val(n))
	st := re.Stats()
	if st.DiskEvictions != uint64(perSeg) || st.SegmentsDropped != 1 || st.Compactions != 0 {
		t.Fatalf("want one segment of %d keys evicted: %+v", perSeg, st)
	}
	if re.Len() != n-perSeg+1 {
		t.Fatalf("len=%d, want %d", re.Len(), n-perSeg+1)
	}
	for i := 0; i < n; i++ {
		got, ok := re.Get(fmt.Sprintf("key-%02d", i))
		switch {
		case i < perSeg && ok:
			t.Errorf("evicted key-%02d still served", i)
		case i >= perSeg && (!ok || !bytes.Equal(got, val(i))):
			t.Errorf("live key-%02d lost by eviction: %q, %v", i, got, ok)
		}
	}
	if got, ok := re.Get("key-new"); !ok || !bytes.Equal(got, val(n)) {
		t.Errorf("new key = %q, %v", got, ok)
	}
}

// FuzzDiskOpen opens arbitrary bytes as a segment. Open must neither
// panic nor fail, must keep exactly the prefix of whole, keyed,
// CRC-valid records that a plain record walk accepts (the newest
// record of a key winning), and must serve every kept key's value.
func FuzzDiskOpen(f *testing.F) {
	seg := encodeRecord("a", []byte("one"))
	seg = append(seg, encodeRecord("b", []byte("two"))...)
	seg = append(seg, encodeRecord("a", []byte("three"))...)
	f.Add(seg)
	f.Add(seg[:len(seg)-2])
	flipped := bytes.Clone(seg)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, seg []byte) {
		want, prefix := walkRecords(seg)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		d := openDisk(t, dir, DiskOptions{FlushInterval: -1})
		if d.Len() != len(want) {
			t.Fatalf("len=%d, want %d", d.Len(), len(want))
		}
		for key, val := range want {
			if got, ok := d.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("Get(%q) = %q, %v; want %q", key, got, ok, val)
			}
		}
		st := d.Stats()
		truncated := uint64(0)
		if prefix < int64(len(seg)) {
			truncated = 1
		}
		if st.DiskBytes != prefix || st.TruncatedRecords != truncated {
			t.Fatalf("kept %d bytes with %d truncations, want %d and %d", st.DiskBytes, st.TruncatedRecords, prefix, truncated)
		}
	})
}

// walkRecords is the reference reading of a segment: records in order
// while each is whole, has a key and matches its CRC. It returns the
// newest value of each key and the length of the accepted prefix.
func walkRecords(seg []byte) (map[string][]byte, int64) {
	want := map[string][]byte{}
	off := 0
	for len(seg)-off >= recordHeaderSize {
		keyLen := int(binary.BigEndian.Uint16(seg[off+4:]))
		end := off + recordHeaderSize + keyLen + int(binary.BigEndian.Uint32(seg[off+6:]))
		if keyLen == 0 || end > len(seg) || crc32.Checksum(seg[off+4:end], crcTable) != binary.BigEndian.Uint32(seg[off:]) {
			break
		}
		want[string(seg[off+recordHeaderSize:off+recordHeaderSize+keyLen])] = seg[off+recordHeaderSize+keyLen : end]
		off = end
	}
	return want, int64(off)
}

// openStoreRecords is the size of the store the open pin and benchmark
// rebuild: the shape of a warm-started daemon's result store.
const openStoreRecords = 65536

// writeOpenStore lays out openStoreRecords records of 64-character
// keys (spec hashes) and 250–377-byte values as one segment in dir.
func writeOpenStore(tb testing.TB, dir string) {
	tb.Helper()
	var seg bytes.Buffer
	val := make([]byte, 377)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < openStoreRecords; i++ {
		seg.Write(encodeRecord(fmt.Sprintf("%064x", int64(i)*2654435761), val[:250+i%128]))
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), seg.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestDiskOpenAllocs pins warm start at no allocation per record: the
// index holds digests, not key strings, and open reads through one
// reused buffer. What remains is per-segment set-up and the index's
// own growth.
func TestDiskOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	dir := t.TempDir()
	writeOpenStore(t, dir)
	allocs := testing.AllocsPerRun(3, func() {
		d, err := OpenDisk(dir, DiskOptions{MaxBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != openStoreRecords {
			t.Fatalf("len=%d, want %d", d.Len(), openStoreRecords)
		}
		_ = d.Close()
	})
	if perRecord := allocs / openStoreRecords; perRecord > 0.01 {
		t.Fatalf("OpenDisk allocated %.0f times for %d records (%.3f per record, budget 0.01)",
			allocs, openStoreRecords, perRecord)
	}
}

// BenchmarkDiskOpen times warm start of a openStoreRecords-record
// store: the index rebuild every daemon start pays before serving.
func BenchmarkDiskOpen(b *testing.B) {
	dir := b.TempDir()
	writeOpenStore(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := OpenDisk(dir, DiskOptions{MaxBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() != openStoreRecords {
			b.Fatalf("len=%d, want %d", d.Len(), openStoreRecords)
		}
		_ = d.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*openStoreRecords), "ns/record")
}
