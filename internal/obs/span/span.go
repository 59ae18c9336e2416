// Package span is the serving stack's dependency-free span recorder:
// per-request traces made of named, nested, monotonic-clock spans,
// retained in a lock-free ring of recently completed traces (see
// recorder.go) for GET /v1/jobs/{id}/spans and GET /debug/traces.
//
// The design mirrors internal/obs's two-speed split. Recording —
// Trace.Start, Trace.End, Trace.SetAttr — is the warm path: a short
// critical section on the trace's own mutex, and every method is safe
// on a nil *Trace so untraced work (direct scheduler submissions,
// benchmarks, cache hits driven without HTTP) pays exactly one nil
// check. A trace starts with room for four spans, enough for a cache
// hit's three, and Trace.Start grows the array by append past that, so
// a trace allocates in proportion to the spans it records: about 1 KB
// for a hit, a few KB for a simulate miss. End and SetAttr never
// allocate, and Start allocates only when it grows the array, which a
// creator that passes its span count as the capacity hint, or reserves
// room for the spans it will record, avoids.
// Exporting — Export's JSON tree, the recorder ring's snapshots — is
// the cold path and runs only against sealed traces, which are
// immutable, so readers never contend with writers.
//
// Completion is reference-counted, not inferred from open spans: the
// HTTP middleware holds one reference for the request's lifetime and
// the scheduler holds one per submitted job, so a trace seals exactly
// when the response has been written AND every job it spawned has
// settled — never in the gap between two sequential spans. Sealing
// delivers the trace to the recorder's ring and, past the recorder's
// slow threshold, to its slog logger.
package span

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ID addresses a span within its trace. Spans are identified by index,
// so an ID is only meaningful against the trace that issued it.
type ID int32

// Root is the ID of every trace's root span, created by
// Recorder.Start.
const Root ID = 0

// None is the nil span: Start returns it from a nil trace, a sealed
// trace, or a trace at its span cap, and every method accepting an ID
// treats it as a no-op. Callers can therefore thread IDs without
// checking them.
const None ID = -1

// maxSpans bounds one trace's span count: a 1024-variant sweep whose
// replications each record a span must not grow a trace without
// limit. Spans past the cap are counted as dropped, and Start returns
// None for them.
const maxSpans = 4096

// maxAttrs is the fixed per-span attribute capacity; SetAttr beyond it
// is dropped silently (attributes are debug annotations, not data).
const maxAttrs = 4

// Attr is one key/value annotation on a span. Exactly one of Str and
// Int is meaningful: Str when non-empty, Int otherwise.
type Attr struct {
	Key string
	Str string
	Int int64
}

// Span is one timed operation. Start and End are nanoseconds on the
// trace's monotonic clock (0 = trace start); End stays 0 until the
// span ends (seal closes still-open spans at the trace's end time).
type Span struct {
	Name   string
	Parent ID
	Start  int64
	End    int64
	attrs  [maxAttrs]Attr
	nattrs uint8
}

// Attrs returns the span's recorded attributes.
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Trace is one request's span collection. Create traces through
// Recorder.Start; the zero value is unusable, but every method is
// safe — and a no-op — on a nil *Trace.
type Trace struct {
	rec   *Recorder
	reqID string
	begin time.Time // wall + monotonic anchor; spans are offsets from it

	mu      sync.Mutex
	spans   []Span
	dropped int

	refs     atomic.Int32
	sealed   atomic.Bool
	duration time.Duration // written once at seal, read through Sealed()
}

// RequestID returns the request ID the trace was opened with.
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.reqID
}

// Begin returns the trace's start time.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.begin
}

// Duration returns the sealed trace's total duration (0 while open).
func (t *Trace) Duration() time.Duration {
	if t == nil || !t.sealed.Load() {
		return 0
	}
	return t.duration
}

// Sealed reports whether the trace has completed and become immutable.
func (t *Trace) Sealed() bool { return t != nil && t.sealed.Load() }

// since is the trace-relative monotonic clock.
func (t *Trace) since() int64 { return int64(time.Since(t.begin)) }

// Start opens a child span under parent and returns its ID. On a nil
// or sealed trace, or past the span cap, it returns None (the cap
// overflow is counted and exported as dropped_spans).
func (t *Trace) Start(name string, parent ID) ID {
	if t == nil {
		return None
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed.Load() {
		return None
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return None
	}
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: now})
	return ID(len(t.spans) - 1)
}

// Reserve makes room for n more spans, up to the span cap, by growing
// the array at most once, so a caller that learns its span count after
// the trace started (a sweep, once it has counted its tasks) records
// them without the repeated doublings of Start. No-op on a nil or
// sealed trace, or when the room is already there.
func (t *Trace) Reserve(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	want := len(t.spans) + min(n, maxSpans-len(t.spans))
	if !t.sealed.Load() && want > cap(t.spans) {
		t.spans = append(make([]Span, 0, want), t.spans...)
	}
}

// End closes the span. No-op for None, a nil trace, or a sealed trace.
func (t *Trace) End(id ID) {
	if t == nil || id < 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	if !t.sealed.Load() && int(id) < len(t.spans) {
		t.spans[id].End = now
	}
	t.mu.Unlock()
}

// SetAttr annotates the span with an integer value. Attributes past
// the per-span capacity are dropped.
func (t *Trace) SetAttr(id ID, key string, v int64) {
	t.setAttr(id, Attr{Key: key, Int: v})
}

// SetAttrStr annotates the span with a string value.
func (t *Trace) SetAttrStr(id ID, key, v string) {
	t.setAttr(id, Attr{Key: key, Str: v})
}

func (t *Trace) setAttr(id ID, a Attr) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if !t.sealed.Load() && int(id) < len(t.spans) {
		if s := &t.spans[id]; s.nattrs < maxAttrs {
			s.attrs[s.nattrs] = a
			s.nattrs++
		}
	}
	t.mu.Unlock()
}

// Retain adds a reference holding the trace open. Every Retain must be
// paired with exactly one Release.
func (t *Trace) Retain() {
	if t == nil {
		return
	}
	t.refs.Add(1)
}

// Release drops one reference; the reference that hits zero seals the
// trace — closes still-open spans at the current time, makes the trace
// immutable, and delivers it to the recorder's ring and slow log.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	switch n := t.refs.Add(-1); {
	case n == 0:
		t.seal()
	case n < 0:
		panic("span: Release without matching Retain")
	}
}

// seal finalizes the trace once the last reference is gone.
func (t *Trace) seal() {
	end := t.since()
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].End == 0 {
			t.spans[i].End = end
		}
	}
	// Right-size before the ring retains the trace when more than 16
	// slots sit unused (a trace's last doubling, or a capacity hint or
	// reservation that overshot), so the ring does not pin them for the
	// trace's lifetime there. Smaller slack costs less to keep than to
	// copy.
	if cap(t.spans) > len(t.spans)+16 {
		t.spans = append(make([]Span, 0, len(t.spans)), t.spans...)
	}
	t.duration = time.Duration(end)
	t.mu.Unlock()
	t.sealed.Store(true)
	if t.rec != nil {
		t.rec.deliver(t)
	}
}

// Node is one span in the exported JSON tree. StartNs is relative to
// the trace start.
type Node struct {
	Name       string         `json:"name"`
	StartNs    int64          `json:"start_ns"`
	DurationNs int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Node        `json:"children,omitempty"`
}

// TraceJSON is the exported form of one sealed trace.
type TraceJSON struct {
	RequestID    string    `json:"request_id,omitempty"`
	Start        time.Time `json:"start"`
	DurationNs   int64     `json:"duration_ns"`
	Spans        int       `json:"spans"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Root         *Node     `json:"root"`
}

// Export renders the sealed trace as a JSON-ready span tree. It
// returns nil while the trace is still recording (an open trace's
// spans are being written concurrently and must not be read).
func (t *Trace) Export() *TraceJSON {
	if !t.Sealed() {
		return nil
	}
	nodes := make([]*Node, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		n := &Node{Name: s.Name, StartNs: s.Start, DurationNs: s.End - s.Start}
		if s.nattrs > 0 {
			n.Attrs = make(map[string]any, s.nattrs)
			for _, a := range s.Attrs() {
				if a.Str != "" {
					n.Attrs[a.Key] = a.Str
				} else {
					n.Attrs[a.Key] = a.Int
				}
			}
		}
		nodes[i] = n
	}
	for i := 1; i < len(nodes); i++ {
		// Spans always name an earlier span as parent; anything out of
		// range (including None) reattaches to the root so the tree
		// stays connected.
		p := t.spans[i].Parent
		if p < 0 || int(p) >= i {
			p = Root
		}
		nodes[p].Children = append(nodes[p].Children, nodes[i])
	}
	out := &TraceJSON{
		RequestID:    t.reqID,
		Start:        t.begin,
		DurationNs:   int64(t.duration),
		Spans:        len(t.spans),
		DroppedSpans: t.dropped,
	}
	if len(nodes) > 0 {
		out.Root = nodes[0]
	}
	return out
}

// ctxKey carries a trace and the current parent span through a
// context.
type ctxKey struct{}

type ctxVal struct {
	t      *Trace
	parent ID
}

// NewContext returns ctx carrying the trace and the span under which
// downstream work should nest.
func NewContext(ctx context.Context, t *Trace, parent ID) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{t, parent})
}

// FromContext returns the context's trace and parent span, or
// (nil, None) — every span API tolerates both — when the context is
// untraced.
func FromContext(ctx context.Context) (*Trace, ID) {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.t, v.parent
	}
	return nil, None
}
