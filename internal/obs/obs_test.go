package obs

import (
	"context"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	t.Parallel()

	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter value %d, want 5", got)
	}
	// Re-registration returns the same counter.
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-2.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7.5 {
		t.Errorf("gauge value %v, want 7.5", got)
	}
}

func TestVecChildren(t *testing.T) {
	t.Parallel()

	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "route", "code")
	a := v.With("/v1/simulate", "2xx")
	b := v.With("/v1/simulate", "5xx")
	if a == b {
		t.Fatal("distinct label values share a child")
	}
	if again := v.With("/v1/simulate", "2xx"); again != a {
		t.Error("same label values returned a different child")
	}
	a.Add(3)
	if b.Value() != 0 || a.Value() != 3 {
		t.Errorf("children not independent: a=%d b=%d", a.Value(), b.Value())
	}

	gv := r.GaugeVec("depth", "queue depth", "shard")
	gv.With("0").Set(4)
	gv.WithFunc(func() float64 { return 9 }, "1")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`depth{shard="0"} 4`, `depth{shard="1"} 9`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	t.Parallel()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "fine")
	mustPanic("bad name", func() { r.Counter("bad-name", "dash") })
	mustPanic("digit start", func() { r.Counter("0bad", "digit") })
	mustPanic("empty name", func() { r.Counter("", "empty") })
	mustPanic("kind conflict", func() { r.Gauge("ok_total", "fine") })
	mustPanic("help conflict", func() { r.Counter("ok_total", "different help") })
	mustPanic("bad label", func() { r.CounterVec("lbl_total", "l", "bad-label") })
	mustPanic("reserved label", func() { r.CounterVec("lbl2_total", "l", "__reserved") })
	mustPanic("label arity", func() { r.CounterVec("lbl3_total", "l", "a").With("x", "y") })
	mustPanic("label schema conflict", func() { r.CounterVec("lbl3_total", "l", "b") })
	mustPanic("empty buckets", func() { r.Histogram("h_empty", "h", nil) })
	mustPanic("nan bucket", func() { r.Histogram("h_nan", "h", []float64{1, nan()}) })
	mustPanic("bucket conflict", func() {
		r.Histogram("h_ok", "h", []float64{1, 2})
		r.Histogram("h_ok", "h", []float64{1, 3})
	})
}

func nan() float64 { n := 0.0; return n / n }

func TestRequestIDs(t *testing.T) {
	t.Parallel()

	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("two fresh request IDs collide: %q", a)
	}
	if len(a) != 16 || !ValidRequestID(a) {
		t.Errorf("generated ID %q not valid", a)
	}
	for _, bad := range []string{"", "has space", "quo\"te", "back\\slash", "ctrl\x01", strings.Repeat("x", MaxRequestIDLen+1)} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true", bad)
		}
	}
	if !ValidRequestID("client-supplied_ID.123") {
		t.Error("reasonable client ID rejected")
	}

	ctx := WithRequestID(context.Background(), "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("RequestID = %q", got)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Errorf("empty context RequestID = %q", got)
	}
}

// TestFuncChildrenRegisterWhileCollecting registers fresh
// function-backed children — the step-cost profiler's lazy first-sample
// registration — while other goroutines collect and scrape. Under
// -race this pins that a child's fn is published safely: a scrape may
// see a new child before, or after, its registration, but never reads
// fn while it is written.
func TestFuncChildrenRegisterWhileCollecting(t *testing.T) {
	t.Parallel()

	r := NewRegistry()
	cv := r.CounterVec("func_total", "function-backed counters", "cell")
	gv := r.GaugeVec("func_gauge", "function-backed gauges", "cell")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var snap *Snapshot
		for {
			select {
			case <-done:
				return
			default:
			}
			snap = r.Collect(snap, time.Now())
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		cell := strconv.Itoa(i)
		v := float64(i)
		cv.WithFunc(func() float64 { return v }, cell)
		gv.WithFunc(func() float64 { return -v }, cell)
		r.CounterFunc("func_single_total", "a re-registered function counter", func() float64 { return v })
		r.GaugeFunc("func_single", "a re-registered function gauge", func() float64 { return v })
	}
	close(done)
	wg.Wait()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`func_total{cell="499"} 499`, `func_gauge{cell="7"} -7`, "func_single 499"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
