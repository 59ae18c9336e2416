package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// Request headers that tie a traced request to its op and client span.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// spanRec is one timed call: a name, the span that caused it, and its
// interval in nanoseconds since the tracer's epoch.
type spanRec struct {
	name       string
	parent     int
	start, end int64
}

// jobRef is a scheduler job an op created, whose Job.Times become the
// op's queue-wait and run spans.
type jobRef struct {
	job      *service.Job
	admitEnd int64
	parent   int // span the queue and run spans nest under; -1 for async jobs
	order    string
}

// opTrace holds the spans of one op. Every method is safe on a nil
// receiver, which is what untraced requests (warm-up, untraced runs)
// carry.
type opTrace struct {
	epoch time.Time

	mu    sync.Mutex
	spans []spanRec
	jobs  []jobRef
	// traceReq is the client span of an async op's trace stream request.
	traceReq int
}

func (t *opTrace) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *opTrace) openAt(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: t.since(at), end: -1})
	return len(t.spans) - 1
}

func (t *opTrace) open(name string, parent int) int { return t.openAt(name, parent, time.Now()) }

func (t *opTrace) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.since(time.Now())
	t.mu.Lock()
	if t.spans[id].end < 0 {
		t.spans[id].end = end
	}
	t.mu.Unlock()
}

func (t *opTrace) add(name string, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

func (t *opTrace) noteJob(job *service.Job, admit, parent int, order string) {
	if t == nil || job == nil {
		return
	}
	t.mu.Lock()
	t.jobs = append(t.jobs, jobRef{job: job, admitEnd: t.spans[admit].end, parent: parent, order: order})
	t.mu.Unlock()
}

func (t *opTrace) setTraceRequest(sid int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceReq = sid
	t.mu.Unlock()
}

type traceKey struct{}

type traceCtx struct {
	tr   *opTrace
	span int
}

func withTrace(ctx context.Context, tr *opTrace, span int) context.Context {
	return context.WithValue(ctx, traceKey{}, traceCtx{tr, span})
}

func traceFrom(ctx context.Context) (*opTrace, int) {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	if tc.tr == nil {
		return nil, -1
	}
	return tc.tr, tc.span
}

// binding attaches a spec hash's store calls to the op span that is
// waiting on them.
type binding struct {
	tr     *opTrace
	parent int
}

// tracer owns the traced run's spans and layer samples. Each op's
// spans stay in memory until the op completes and is folded into the
// layer samples.
type tracer struct {
	epoch time.Time
	// ops[i] is window op i's trace, set by the client before the op's
	// first request and cleared once the op is folded.
	ops []atomic.Pointer[opTrace]
	// kept holds the folded traces of the first keptOps ops, written out
	// when the run ends.
	kept [keptOps]*opTrace

	bmu      sync.RWMutex
	bindings map[string]binding

	// recording gates the per-call store samples to the timed window.
	recording atomic.Bool
	promotes  atomic.Uint64
	smu       sync.Mutex
	getMem    []float64 // µs
	getDisk   []float64 // µs
	put       []float64 // µs
	spill     []float64 // µs
	spillMax  atomic.Int64
}

func newTracer(ops int) *tracer {
	return &tracer{epoch: time.Now(), ops: make([]atomic.Pointer[opTrace], ops), bindings: make(map[string]binding)}
}

// start opens the trace of window op i (nil past the traced range).
func (tc *tracer) start(i int) *opTrace {
	if tc == nil || i < 0 || i >= len(tc.ops) {
		return nil
	}
	tr := &opTrace{epoch: tc.epoch, traceReq: -1}
	tc.ops[i].Store(tr)
	return tr
}

// op returns the open trace of window op i, if any.
func (tc *tracer) op(i int) *opTrace {
	if tc == nil || i < 0 || i >= len(tc.ops) {
		return nil
	}
	return tc.ops[i].Load()
}

// finish drops op i's trace once it is folded.
func (tc *tracer) finish(i int) {
	if i < 0 || i >= len(tc.ops) {
		return
	}
	if i < keptOps {
		tc.kept[i] = tc.ops[i].Load()
	}
	tc.ops[i].Store(nil)
}

// keptOps is how many leading ops of the traced window keep their spans
// for the span file.
const keptOps = 100

// spanJSON is one span of the span file, in µs from the op's start.
type spanJSON struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// writeSpans writes the kept traces as NDJSON, one op per line. Call it
// after the window's ops have all completed.
func (tc *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, tr := range tc.kept {
		if tr == nil || len(tr.spans) == 0 {
			continue
		}
		self := selfTimes(tr.spans)
		origin := tr.spans[0].start
		line := struct {
			Op    int        `json:"op"`
			Spans []spanJSON `json:"spans"`
		}{Op: i}
		for k, sp := range tr.spans {
			line.Spans = append(line.Spans, spanJSON{
				Name: sp.name, Parent: sp.parent, Start: float64(sp.start-origin) / 1e3,
				End: float64(sp.end-origin) / 1e3, Self: float64(self[k]) / 1e3,
			})
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// fromRequest resolves a request's op trace and client span.
func (tc *tracer) fromRequest(r *http.Request) (*opTrace, int) {
	i, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil {
		return nil, -1
	}
	sid, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		return nil, -1
	}
	return tc.op(i), sid
}

// wrap times ServeHTTP of every request as the op's "http.handler"
// span.
func (tc *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, parent := tc.fromRequest(r)
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		sid := tr.open("http.handler", parent)
		h.ServeHTTP(w, r.WithContext(withTrace(r.Context(), tr, sid)))
		tr.close(sid)
	})
}

func (tc *tracer) bind(keys []string, tr *opTrace, parent int) {
	if tr == nil {
		return
	}
	tc.bmu.Lock()
	for _, k := range keys {
		tc.bindings[k] = binding{tr, parent}
	}
	tc.bmu.Unlock()
}

func (tc *tracer) unbind(keys []string) {
	tc.bmu.Lock()
	for _, k := range keys {
		delete(tc.bindings, k)
	}
	tc.bmu.Unlock()
}

func (tc *tracer) bound(key string) binding {
	tc.bmu.RLock()
	defer tc.bmu.RUnlock()
	return tc.bindings[key]
}

func (tc *tracer) sample(dst *[]float64, d time.Duration) {
	if !tc.recording.Load() {
		return
	}
	tc.smu.Lock()
	*dst = append(*dst, float64(d)/1e3)
	tc.smu.Unlock()
}

// storeEvent receives store.Tiered's op hook.
func (tc *tracer) storeEvent(op string, elapsed time.Duration) {
	switch op {
	case "promote":
		tc.promotes.Add(1)
	case "spill":
		tc.sample(&tc.spill, elapsed)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover.
func selfTimes(spans []spanRec) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		curB = -1 << 62
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = max(s.end-s.start-covered, 0)
	}
	return self
}
