package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs/span"
	"repro/internal/service/loadctl"
	"repro/internal/store"
)

// Cache is the serving layer's result cache keyed by spec hash, with
// single-flight deduplication: concurrent Do calls for one key run
// compute exactly once and share the outcome. Storage is delegated to
// a pluggable store.Store — an in-process LRU by default, or a tiered
// memory+disk store (see NewCacheWithStore) that survives restarts —
// while the single-flight machinery and request accounting live here,
// so every backend sees the same dedup semantics. Capacity 0 with the
// default backend disables storage but keeps the deduplication.
type Cache struct {
	mu      sync.Mutex
	backend store.Store[*Report]
	flights map[string]*flight

	// hits/misses/waits classify every Do/Acquire under c.mu (the
	// overload-retry path even un-counts an abandoned join, so these
	// are not plain monotone atomics). They are the single source of
	// truth for both export paths: Stats() snapshots them for /statsz,
	// and registerCacheMetrics exposes the same numbers to /metrics
	// through scrape-time function children.
	hits, misses, waits uint64
}

// flight is one in-progress computation; done closes when report/err
// are final.
type flight struct {
	done   chan struct{}
	report *Report
	err    error
}

// CacheStats is a point-in-time snapshot for /statsz.
type CacheStats struct {
	Capacity int `json:"capacity"`
	Size     int `json:"size"`
	// Hits counts Do calls answered from the backing store (either
	// tier).
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that started a computation.
	Misses uint64 `json:"misses"`
	// Waits counts Do calls deduplicated onto an in-flight
	// computation.
	Waits     uint64 `json:"waits"`
	Evictions uint64 `json:"evictions"`
	// HitRate is (Hits+Waits) / (Hits+Waits+Misses), the fraction of
	// requests that did not pay for a simulation.
	HitRate float64 `json:"hit_rate"`
	// Tiers breaks storage traffic down by tier: memory vs disk hits,
	// promotions, spills, compactions, bytes on disk.
	Tiers store.Stats `json:"tiers"`
}

// reportCodec is the canonical byte encoding persisted by the disk
// tier. Report is plain JSON of ints and float64s; Go's shortest
// round-trip float encoding makes Decode(Encode(r)) value-identical
// to r, which is what the restart-durability guarantee needs.
type reportCodec struct{}

// Encode marshals the report canonically.
func (reportCodec) Encode(r *Report) ([]byte, error) { return json.Marshal(r) }

// Decode reverses Encode.
func (reportCodec) Decode(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReportCodec returns the canonical Report codec for building a
// store.Tiered backend outside this package (cmd/reprod).
func ReportCodec() store.Codec[*Report] { return reportCodec{} }

// NewCache builds a cache over an in-process LRU holding up to
// capacity reports (capacity ≥ 0).
func NewCache(capacity int) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("%w: cache capacity=%d", ErrBadSpec, capacity)
	}
	mem, err := store.NewMemory[*Report](capacity)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return NewCacheWithStore(mem)
}

// NewCacheWithStore builds a cache over an arbitrary storage backend
// (e.g. a store.Tiered for persistence across restarts). The cache
// owns the backend from here on: Cache.Close closes it.
func NewCacheWithStore(backend store.Store[*Report]) (*Cache, error) {
	if backend == nil {
		return nil, fmt.Errorf("%w: nil cache store", ErrBadSpec)
	}
	return &Cache{
		backend: backend,
		flights: make(map[string]*flight),
	}, nil
}

// claim resolves key to a stored report, or to its in-flight
// computation and whether this caller leads it (and must publish it),
// counting the call as a hit, join or miss. The backend is read
// outside c.mu: a disk-tier read can block on I/O, and holding the
// mutex across it would queue every other lookup — memory hits
// included — behind one slow read. A leader re-reads the backend once
// its flight is registered, so a flight for key that published between
// the first read and the registration is seen and compute still runs
// exactly once.
func (c *Cache) claim(key string) (report *Report, f *flight, lead bool) {
	if report, ok := c.backend.Get(key); ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return report, nil, false
	}
	c.mu.Lock()
	if f, inFlight := c.flights[key]; inFlight {
		c.waits++
		c.mu.Unlock()
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	report, ok := c.backend.Get(key)
	c.mu.Lock()
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, f, true
	}
	delete(c.flights, key)
	c.hits++
	c.mu.Unlock()
	f.report = report
	close(f.done)
	return report, nil, false
}

// Do returns the cached report for key, or arranges for compute to run
// exactly once across all concurrent callers and shares its result.
// cached reports whether this caller avoided starting a computation
// (stored hit or deduplicated join). compute runs in its own
// goroutine, so an expired ctx abandons only this caller's wait — the
// computation still completes and populates the cache for others.
//
// A deduplicated follower does not inherit the leader's ErrOverloaded:
// that error is decided at submit time, before any job runs, so the
// queue may have drained by the time the follower observes it. The
// follower retries Do once (re-checking the cache, joining a newer
// flight, or leading its own) instead of amplifying one momentary
// rejection across every concurrent identical request. The exception
// is a brownout shed (ErrShed with Level >= loadctl.LevelShedBatch):
// the controller is deliberately rejecting this class of work
// system-wide, so the follower observes the leader's ErrShed as-is —
// retrying would resubmit exactly the traffic the brownout exists to
// turn away.
//
// When ctx carries a span trace, the lookup is recorded as a
// "cache.get" span whose outcome attr classifies the call (hit, join,
// or lead), and a leading call's store write is recorded as
// "cache.put". A traceless ctx (every benchmark and internal caller)
// pays nothing: the nil-trace span calls are no-ops.
func (c *Cache) Do(ctx context.Context, key string, compute func() (*Report, error)) (report *Report, cached bool, err error) {
	tr, parent := span.FromContext(ctx)
	retried := false
	for {
		sid := tr.Start("cache.get", parent)
		report, f, lead := c.claim(key)
		switch {
		case report != nil:
			tr.SetAttrStr(sid, "outcome", "hit")
			tr.End(sid)
			return report, true, nil
		case lead:
			tr.SetAttrStr(sid, "outcome", "lead")
			go c.lead(key, f, compute, tr, parent)
		default:
			tr.SetAttrStr(sid, "outcome", "join")
		}
		tr.End(sid)
		select {
		case <-f.done:
			if !lead && !retried && errors.Is(f.err, ErrOverloaded) && !isBrownoutShed(f.err) {
				retried = true
				// Un-count the abandoned join so the retry attempt
				// re-classifies this call (hit, wait, or miss) instead
				// of counting it twice in the hit-rate denominator.
				c.mu.Lock()
				c.waits--
				c.mu.Unlock()
				continue
			}
			return f.report, !lead, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// isBrownoutShed reports whether err is a shed decided by an active
// brownout (as opposed to a momentary queue-full or cost rejection).
func isBrownoutShed(err error) bool {
	var shed *ErrShed
	return errors.As(err, &shed) && shed.Level >= loadctl.LevelShedBatch
}

// lead runs the computation for one flight and publishes the result.
// tr/parent carry the leading request's span trace into the store
// write; the leader goroutine can outlive its request, in which case
// the trace has sealed and the span calls quietly no-op.
func (c *Cache) lead(key string, f *flight, compute func() (*Report, error), tr *span.Trace, parent span.ID) {
	report, err := compute()
	c.publish(key, f, report, err, tr, parent)
}

// publish completes a flight: stores a successful report, removes the
// flight, and releases every waiter.
func (c *Cache) publish(key string, f *flight, report *Report, err error, tr *span.Trace, parent span.ID) {
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil && report != nil {
		sid := tr.Start("cache.put", parent)
		c.backend.Put(key, report)
		tr.End(sid)
	}
	c.mu.Unlock()
	f.report = report
	f.err = err
	close(f.done)
}

// Acquire is the non-callback face of the single-flight machinery,
// for callers that compute many keys as one batch (the sweep path)
// and so cannot hand each key its own compute closure. Exactly one of
// the returns is non-zero:
//
//   - report ≠ nil: stored hit (counted like a Do hit).
//   - publish ≠ nil: this caller leads the key's flight and MUST call
//     publish exactly once with the outcome — also on its error paths
//     — which stores the report and releases every waiter.
//   - wait ≠ nil: another request (a Do leader or another Acquire
//     caller) is computing this key; wait blocks for its outcome.
//
// Concurrent identical sweeps, and /v1/simulate requests racing a
// sweep that covers the same spec, therefore simulate once, exactly
// like concurrent identical simulate requests.
func (c *Cache) Acquire(key string) (report *Report, publish func(*Report, error), wait func(context.Context) (*Report, error)) {
	report, f, lead := c.claim(key)
	switch {
	case report != nil:
		return report, nil, nil
	case lead:
		// Acquire has no request context to pull a trace from; the
		// sweep handler records its publish loop under its own span
		// instead.
		return nil, func(report *Report, err error) { c.publish(key, f, report, err, nil, span.None) }, nil
	}
	return nil, nil, func(ctx context.Context) (*Report, error) {
		select {
		case <-f.done:
			return f.report, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	tiers := c.backend.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Capacity:  tiers.MemCapacity,
		Size:      tiers.MemLen,
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Evictions: tiers.MemEvictions,
		Tiers:     tiers,
	}
	if tiers.DiskLen > s.Size {
		s.Size = tiers.DiskLen
	}
	if total := s.Hits + s.Waits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits+s.Waits) / float64(total)
	}
	return s
}

// Close closes the storage backend (flushing a persistent tier's
// pending writes). The single-flight machinery stays usable, but with
// a closed persistent backend new results are no longer stored.
func (c *Cache) Close() error {
	return c.backend.Close()
}
