package span

import (
	"log/slog"
	"sort"
	"sync/atomic"
	"time"
)

// defaultSpanCap is the initial span capacity for traces whose creator
// passed no hint: a cache hit's three spans (root, validate, cache.get)
// plus a miss's admission. A hit therefore fits without growing; a
// single-replication miss records 8 spans and an 8-replication v1 miss
// 15, so Trace.Start grows their arrays by append, and a sweep pays
// only the doublings its span count needs.
const defaultSpanCap = 4

// Recorder retains the last N sealed traces in a lock-free ring and
// optionally slow-logs traces past a duration threshold. All methods
// are safe for concurrent use, and safe on a nil *Recorder (traces
// from a nil recorder still record; they just aren't retained).
type Recorder struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64

	slowThreshold time.Duration
	slowLogger    *slog.Logger

	started atomic.Uint64
	sealedN atomic.Uint64
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithSlowLog makes the recorder log every trace whose total duration
// reaches threshold at Warn level through logger. A zero threshold
// disables slow logging.
func WithSlowLog(logger *slog.Logger, threshold time.Duration) Option {
	return func(r *Recorder) {
		r.slowLogger = logger
		r.slowThreshold = threshold
	}
}

// NewRecorder returns a recorder retaining the most recent ring sealed
// traces (minimum 1).
func NewRecorder(ring int, opts ...Option) *Recorder {
	if ring < 1 {
		ring = 1
	}
	r := &Recorder{slots: make([]atomic.Pointer[Trace], ring)}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Start opens a new trace whose root span is named rootName. capHint
// is the span count the caller expects, root included: the backing
// array starts with that much room, raised to defaultSpanCap (pass 0
// for the default) and cut to maxSpans, and Trace.Start grows it by
// append past that. A caller that knows its span count passes it so
// recording never grows the array. The caller holds the trace's
// initial reference and must Release it.
//
// Start works on a nil recorder: the trace records normally but is
// discarded at seal instead of entering a ring.
func (r *Recorder) Start(requestID, rootName string, capHint int) *Trace {
	if capHint < defaultSpanCap {
		capHint = defaultSpanCap
	}
	if capHint > maxSpans {
		capHint = maxSpans
	}
	t := &Trace{
		rec:   r,
		reqID: requestID,
		begin: time.Now(),
		spans: make([]Span, 1, capHint),
	}
	t.spans[0] = Span{Name: rootName, Parent: None}
	t.refs.Store(1)
	if r != nil {
		r.started.Add(1)
	}
	return t
}

// Event records a single-span, already-completed trace — for
// operations with no request context, like the tiered store's async
// spill — and delivers it straight to the ring.
func (r *Recorder) Event(name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	t := &Trace{
		begin:    start,
		duration: d,
		spans:    []Span{{Name: name, Parent: None, End: int64(d)}},
	}
	t.sealed.Store(true)
	r.started.Add(1)
	r.deliver(t)
}

// deliver retains a freshly sealed trace in the ring and applies the
// slow-log policy.
func (r *Recorder) deliver(t *Trace) {
	if r == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
	r.sealedN.Add(1)
	if r.slowLogger != nil && r.slowThreshold > 0 && t.duration >= r.slowThreshold {
		r.slowLogger.Warn("slow trace",
			"request_id", t.reqID,
			"root", t.spans[0].Name,
			"duration", t.duration,
			"spans", len(t.spans),
			"dropped_spans", t.dropped,
		)
	}
}

// Snapshot returns the ring's sealed traces, newest first. The traces
// are immutable; callers may export them without synchronization.
func (r *Recorder) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].begin.After(out[j].begin) })
	return out
}

// Stats reports how many traces the recorder has started and sealed
// since creation.
func (r *Recorder) Stats() (started, sealed uint64) {
	if r == nil {
		return 0, 0
	}
	return r.started.Load(), r.sealedN.Load()
}
