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
// check. Exporting — Export's JSON tree, the recorder ring's
// snapshots — is the cold path and runs only against sealed traces,
// which are immutable, so readers never contend with writers.
//
// What a trace costs (sizes on a 64-bit platform). A span is its name,
// parent, start and end: 40 B. Most spans carry one attribute or none,
// so attributes are kept apart, in one array per trace of (span ID,
// key, value) records of 48 B each. The Trace itself (488 B, a 512 B
// allocation) holds room for its first four spans and four attributes,
// so a cache hit, which records three spans and two attributes, costs
// that one allocation. Past that room Trace.Start and Trace.SetAttr grow their
// arrays by append, so a trace allocates in proportion to what it
// records. A sealed 16-variant × 8-replication v1 sweep trace (135
// spans, 136 attributes) holds 12,072 B in its arrays: 135 × 40 B of
// spans and 139 × 48 B of attributes, the room Trace.Reserve made. End
// never allocates, and Start and SetAttr allocate only when they grow
// an array, which a creator that passes its span count as the capacity
// hint, or reserves room for the spans it will record, avoids.
//
// A trace records at most maxSpans (4,096) spans and maxAttrs (8,192)
// attributes and counts the rest as dropped, and sealing right-sizes
// both arrays, so one sealed trace pins about 4,096 × 40 B +
// 8,192 × 48 B = 557,056 B of them at most, about 570 MB across the
// 1,024 finished jobs a scheduler retains by default.
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

// maxAttrs bounds one trace's attribute count at two per span of a
// full trace, the most any caller sets on average (a v2 sweep's task
// spans carry replication and lanes). Attributes past the cap are
// counted as dropped (attributes are debug annotations, not data).
const maxAttrs = 2 * maxSpans

// attrSlack is the attribute room Reserve adds beyond one per reserved
// span, for the attributes that spans opened before the reservation set
// as they end: the serving layer sets the root's status last.
const attrSlack = 4

// span is one timed operation. start and end are nanoseconds on the
// trace's monotonic clock (0 = trace start); end stays 0 until the
// span ends (seal closes still-open spans at the trace's end time).
type span struct {
	name   string
	parent ID
	start  int64
	end    int64
}

// attr is one key/value annotation on the span id. Exactly one of str
// and num is meaningful: str when non-empty, num otherwise.
type attr struct {
	id  ID
	key string
	str string
	num int64
}

// Trace is one request's span collection. Create traces through
// Recorder.Start; the zero value is unusable, but every method is
// safe — and a no-op — on a nil *Trace.
type Trace struct {
	rec   *Recorder
	reqID string
	begin time.Time // wall + monotonic anchor; spans are offsets from it

	mu           sync.Mutex
	spans        []span
	attrs        []attr // in the order they were set, every span's in one array
	dropped      int
	droppedAttrs int

	refs     atomic.Int32
	sealed   atomic.Bool
	duration time.Duration // written once at seal, read through Sealed()

	// first backs spans and attrs until either outgrows it, so a trace
	// that records no more than defaultSpanCap of each (a cache hit:
	// three spans, two attributes) is one allocation.
	first struct {
		spans [defaultSpanCap]span
		attrs [defaultSpanCap]attr
	}
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
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return ID(len(t.spans) - 1)
}

// Reserve makes room for n more spans, up to the span cap, and for one
// attribute on each plus attrSlack more, up to the attribute cap, by
// growing each array at most once. A caller that learns its span count
// after the trace started (a sweep, once it has counted its tasks) then
// records its spans, and one attribute on each, without the repeated
// doublings of Start and SetAttr. No-op on a nil or sealed trace, or
// when the room is already there.
func (t *Trace) Reserve(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed.Load() {
		return
	}
	n = min(n, maxSpans-len(t.spans))
	if want := len(t.spans) + n; want > cap(t.spans) {
		t.spans = append(make([]span, 0, want), t.spans...)
	}
	if want := min(len(t.attrs)+n+attrSlack, maxAttrs); want > cap(t.attrs) {
		t.attrs = append(make([]attr, 0, want), t.attrs...)
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
		t.spans[id].end = now
	}
	t.mu.Unlock()
}

// SetAttr annotates the span with an integer value. Attributes past
// the trace's attribute cap are counted as dropped.
func (t *Trace) SetAttr(id ID, key string, v int64) {
	t.setAttr(attr{id: id, key: key, num: v})
}

// SetAttrStr annotates the span with a string value.
func (t *Trace) SetAttrStr(id ID, key, v string) {
	t.setAttr(attr{id: id, key: key, str: v})
}

func (t *Trace) setAttr(a attr) {
	if t == nil || a.id < 0 {
		return
	}
	t.mu.Lock()
	if !t.sealed.Load() && int(a.id) < len(t.spans) {
		if len(t.attrs) < maxAttrs {
			t.attrs = append(t.attrs, a)
		} else {
			t.droppedAttrs++
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
		if t.spans[i].end == 0 {
			t.spans[i].end = end
		}
	}
	// Right-size either array before the ring retains the trace when
	// more than 16 of its slots sit unused (a trace's last doubling, or
	// a capacity hint or reservation that overshot), so the ring does
	// not pin them for the trace's lifetime there. Smaller slack costs
	// less to keep than to copy.
	if cap(t.spans) > len(t.spans)+16 {
		t.spans = append(make([]span, 0, len(t.spans)), t.spans...)
	}
	if cap(t.attrs) > len(t.attrs)+16 {
		t.attrs = append(make([]attr, 0, len(t.attrs)), t.attrs...)
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
	DroppedAttrs int       `json:"dropped_attrs,omitempty"`
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
	for i, s := range t.spans {
		nodes[i] = &Node{Name: s.name, StartNs: s.start, DurationNs: s.end - s.start}
	}
	// Attributes apply in the order they were set, so a key set twice
	// on one span exports its last value.
	for _, a := range t.attrs {
		n := nodes[a.id]
		if n.Attrs == nil {
			n.Attrs = make(map[string]any)
		}
		if a.str != "" {
			n.Attrs[a.key] = a.str
		} else {
			n.Attrs[a.key] = a.num
		}
	}
	for i := 1; i < len(nodes); i++ {
		// Spans always name an earlier span as parent; anything out of
		// range (including None) reattaches to the root so the tree
		// stays connected.
		p := t.spans[i].parent
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
		DroppedAttrs: t.droppedAttrs,
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
