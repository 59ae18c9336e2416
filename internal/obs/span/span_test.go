package span

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestTraceExportTree(t *testing.T) {
	rec := NewRecorder(4)
	tr := rec.Start("req-1", "POST /v1/simulate", 0)

	validate := tr.Start("validate", Root)
	tr.End(validate)

	admission := tr.Start("admission", Root)
	queue := tr.Start("queue.wait", admission)
	tr.SetAttr(queue, "shard", 3)
	tr.End(queue)
	run := tr.Start("run", admission)
	tr.SetAttrStr(run, "engine", "aggregate")
	tr.SetAttrStr(run, "draw_order", "v2")
	tr.End(run)
	tr.End(admission)

	tr.End(Root)
	tr.Release()

	if !tr.Sealed() {
		t.Fatal("trace not sealed after final Release")
	}
	out := tr.Export()
	if out == nil {
		t.Fatal("Export returned nil for sealed trace")
	}
	if out.RequestID != "req-1" || out.Spans != 5 || out.DroppedSpans != 0 {
		t.Fatalf("header = %+v", out)
	}
	if out.Root == nil || out.Root.Name != "POST /v1/simulate" {
		t.Fatalf("root = %+v", out.Root)
	}
	if len(out.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (validate, admission)", len(out.Root.Children))
	}
	adm := out.Root.Children[1]
	if adm.Name != "admission" || len(adm.Children) != 2 {
		t.Fatalf("admission node = %+v", adm)
	}
	if got := adm.Children[0].Attrs["shard"]; got != int64(3) {
		t.Fatalf("queue.wait shard attr = %v", got)
	}
	if got := adm.Children[1].Attrs["engine"]; got != "aggregate" {
		t.Fatalf("run engine attr = %v", got)
	}
	for _, n := range []*Node{out.Root, adm, adm.Children[0], adm.Children[1]} {
		if n.DurationNs < 0 {
			t.Fatalf("negative duration on %q: %d", n.Name, n.DurationNs)
		}
	}
	if out.DurationNs < adm.DurationNs {
		t.Fatalf("trace duration %d < admission span %d", out.DurationNs, adm.DurationNs)
	}
}

func TestNilTraceAndRecorderAreNoOps(t *testing.T) {
	var tr *Trace
	id := tr.Start("x", Root)
	if id != None {
		t.Fatalf("nil trace Start = %d, want None", id)
	}
	tr.End(id)
	tr.SetAttr(id, "k", 1)
	tr.SetAttrStr(id, "k", "v")
	tr.Reserve(8)
	tr.Retain()
	tr.Release()
	if tr.Sealed() || tr.Export() != nil || tr.RequestID() != "" {
		t.Fatal("nil trace should read as empty")
	}

	var rec *Recorder
	tr2 := rec.Start("", "root", 0)
	if tr2 == nil {
		t.Fatal("nil recorder Start should still return a working trace")
	}
	tr2.End(tr2.Start("child", Root))
	tr2.Release()
	if !tr2.Sealed() {
		t.Fatal("nil-recorder trace should seal")
	}
	rec.Event("spill", time.Now(), time.Millisecond)
	if got := rec.Snapshot(); got != nil {
		t.Fatalf("nil recorder Snapshot = %v", got)
	}
}

func TestSealedTraceRejectsWrites(t *testing.T) {
	tr := NewRecorder(1).Start("r", "root", 0)
	child := tr.Start("child", Root)
	tr.Release()

	if id := tr.Start("late", Root); id != None {
		t.Fatalf("Start on sealed trace = %d, want None", id)
	}
	before := tr.Export()
	tr.End(child)
	tr.SetAttr(child, "late", 1)
	after := tr.Export()
	if len(before.Root.Children) != 1 || len(after.Root.Children) != 1 {
		t.Fatal("sealed span set changed")
	}
	if len(after.Root.Children[0].Attrs) != 0 {
		t.Fatal("attr written after seal")
	}
}

// TestReserveAllocs pins Reserve: after Reserve(n), n Start calls,
// each with one SetAttr, record without allocating, where a trace grown
// by Start and SetAttr alone doubles each array each time it fills.
// Reserve stops at the span cap and is a no-op once the room is there
// or the trace is sealed.
func TestReserveAllocs(t *testing.T) {
	const runs, n = 20, 128
	rec := NewRecorder(1)
	traces := make([]*Trace, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range traces {
		traces[i] = rec.Start("r", "root", 0)
		traces[i].SetAttr(traces[i].Start("before", Root), "k", 1)
		traces[i].Reserve(n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tr := traces[next]
		next++
		for i := range n {
			id := tr.Start("task", Root)
			tr.SetAttr(id, "replication", int64(i))
			tr.End(id)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per %d Start and SetAttr calls after Reserve(%d), want 0", allocs, n, n)
	}

	tr := rec.Start("r", "root", 0)
	tr.Reserve(n)
	tr.Reserve(n - 1)
	if cap(tr.spans) != 1+n || cap(tr.attrs) != n+attrSlack {
		t.Errorf("Reserve(%d) then Reserve(%d): caps %d spans, %d attrs, want %d and %d",
			n, n-1, cap(tr.spans), cap(tr.attrs), 1+n, n+attrSlack)
	}
	tr.Reserve(math.MaxInt)
	if cap(tr.spans) != maxSpans || cap(tr.attrs) != maxSpans-1+attrSlack {
		t.Errorf("Reserve(MaxInt): caps %d spans, %d attrs, want %d and %d",
			cap(tr.spans), cap(tr.attrs), maxSpans, maxSpans-1+attrSlack)
	}
	sealed := rec.Start("r", "root", 0)
	sealed.Release()
	sealed.Reserve(n)
	if cap(sealed.spans) != defaultSpanCap || cap(sealed.attrs) != defaultSpanCap {
		t.Errorf("Reserve on a sealed trace grew it to caps %d spans, %d attrs", cap(sealed.spans), cap(sealed.attrs))
	}
}

// heldBytes is what a trace's span and attribute arrays occupy.
func heldBytes(tr *Trace) int {
	return cap(tr.spans)*int(unsafe.Sizeof(span{})) + cap(tr.attrs)*int(unsafe.Sizeof(attr{}))
}

// TestSweepTraceBytes pins what a sweep trace costs, in the shape a
// 16-variant × 8-replication v1 sweep takes on the daemon: a root and
// five request spans carrying six attributes, then, once the sweep has
// reserved its 128 task spans and the publish span after them, a task
// span per replication carrying its index, the publish span with one
// attribute, and the root's status last. Nothing after the reservation
// may allocate, and the sealed trace's span and attribute arrays must
// hold at most 14 KB.
func TestSweepTraceBytes(t *testing.T) {
	const runs, tasks, budget = 10, 128, 14 << 10
	traces := make([]*Trace, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range traces {
		tr := NewRecorder(1).Start("r", "POST /v1/sweep", 0)
		for j := range 5 {
			id := tr.Start("request", Root)
			for k := range j % 4 {
				tr.SetAttr(id, "k", int64(k))
			}
			tr.End(id)
		}
		tr.Reserve(tasks + 1)
		traces[i] = tr
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tr := traces[next]
		next++
		for i := range tasks {
			id := tr.Start("replication", Root)
			tr.SetAttr(id, "replication", int64(i))
			tr.End(id)
		}
		tr.SetAttr(tr.Start("cache.publish", Root), "variants", 16)
		tr.SetAttr(Root, "status", 200)
	})
	if allocs != 0 {
		t.Errorf("%v allocations recording a reserved sweep's spans and attributes, want 0", allocs)
	}
	tr := traces[runs]
	tr.Release()
	if len(tr.spans) != 135 || len(tr.attrs) != 136 {
		t.Fatalf("trace holds %d spans and %d attributes, want 135 and 136", len(tr.spans), len(tr.attrs))
	}
	if held := heldBytes(tr); held > budget {
		t.Errorf("a sealed 16×8 v1 sweep trace holds %d B in its arrays, want at most %d", held, budget)
	}
}

// TestAttrCapBoundsTrace fills a trace to its span cap with four
// attributes on every span. The attributes past maxAttrs are counted as
// dropped, and the sealed trace's arrays hold no more than a full
// trace's spans and attributes.
func TestAttrCapBoundsTrace(t *testing.T) {
	tr := NewRecorder(1).Start("r", "root", 0)
	for id := Root; id != None; id = tr.Start("s", Root) {
		for k := range 4 {
			tr.SetAttr(id, "k", int64(k))
		}
	}
	tr.Release()
	out := tr.Export()
	if out.Spans != maxSpans || out.DroppedAttrs != 4*maxSpans-maxAttrs {
		t.Fatalf("spans = %d, dropped attributes = %d, want %d and %d",
			out.Spans, out.DroppedAttrs, maxSpans, 4*maxSpans-maxAttrs)
	}
	want := maxSpans*int(unsafe.Sizeof(span{})) + maxAttrs*int(unsafe.Sizeof(attr{}))
	if held := heldBytes(tr); held > want {
		t.Errorf("a full trace holds %d B in its arrays, want at most %d", held, want)
	}
}

// TestSpanCapCountsDropped fills a trace past maxSpans, once pre-sized
// to the cap and once grown by append from the default capacity.
func TestSpanCapCountsDropped(t *testing.T) {
	for _, capHint := range []int{maxSpans, 0} {
		tr := NewRecorder(1).Start("r", "root", capHint)
		for i := 0; i < maxSpans+10; i++ {
			tr.End(tr.Start("s", Root))
		}
		tr.Release()
		out := tr.Export()
		if out.Spans != maxSpans {
			t.Fatalf("capHint %d: spans = %d, want %d", capHint, out.Spans, maxSpans)
		}
		// The root occupies one slot, so 11 of the loop's spans overflowed.
		if out.DroppedSpans != 11 {
			t.Fatalf("capHint %d: dropped = %d, want 11", capHint, out.DroppedSpans)
		}
	}
}

func TestRingRetainsNewestFirst(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Start("r", "root", 0).Release()
	}
	got := rec.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot size = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Begin().After(got[i-1].Begin()) {
			t.Fatal("snapshot not newest-first")
		}
	}
	started, sealed := rec.Stats()
	if started != 10 || sealed != 10 {
		t.Fatalf("stats = (%d, %d), want (10, 10)", started, sealed)
	}
}

func TestEventRecordsPreSealedTrace(t *testing.T) {
	rec := NewRecorder(2)
	rec.Event("store.spill", time.Now().Add(-time.Millisecond), time.Millisecond)
	got := rec.Snapshot()
	if len(got) != 1 || !got[0].Sealed() {
		t.Fatalf("snapshot = %v", got)
	}
	out := got[0].Export()
	if out.Root.Name != "store.spill" || out.Root.DurationNs != int64(time.Millisecond) {
		t.Fatalf("event export = %+v", out.Root)
	}
}

func TestRefcountHoldsTraceOpen(t *testing.T) {
	tr := NewRecorder(1).Start("r", "root", 0)
	tr.Retain() // a second holder, e.g. a submitted job
	tr.Release()
	if tr.Sealed() {
		t.Fatal("sealed while a reference was outstanding")
	}
	if id := tr.Start("still-open", Root); id == None {
		t.Fatal("trace rejected span while open")
	}
	tr.Release()
	if !tr.Sealed() {
		t.Fatal("not sealed after last reference")
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	rec := NewRecorder(2, WithSlowLog(logger, time.Nanosecond))
	rec.Start("req-slow", "root", 0).Release()
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow trace") || !strings.Contains(logged, "req-slow") {
		t.Fatalf("slow log missing: %q", logged)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestContextRoundTrip(t *testing.T) {
	if tr, parent := FromContext(context.Background()); tr != nil || parent != None {
		t.Fatalf("untraced context = (%v, %d)", tr, parent)
	}
	want := NewRecorder(1).Start("r", "root", 0)
	ctx := NewContext(context.Background(), want, Root)
	tr, parent := FromContext(ctx)
	if tr != want || parent != Root {
		t.Fatalf("round trip = (%v, %d)", tr, parent)
	}
	want.Release()
}

// TestConcurrentHammer races writers (span open/close/attr and
// retain/release on shared traces) against readers (ring snapshots and
// exports). Run under -race, it is the recorder's memory-model proof:
// sealed traces must be safely publishable to readers that never take
// the trace mutex. It runs once with each trace pre-sized to its span
// count and once from the default capacity, so the span array also
// grows while four writers record into it, as a sweep trace does.
func TestConcurrentHammer(t *testing.T) {
	const spansPerTrace = 40
	for _, capHint := range []int{spansPerTrace + 1, 0} {
		t.Run(fmt.Sprintf("cap=%d", capHint), func(t *testing.T) {
			hammer(t, capHint, spansPerTrace)
		})
	}
}

func hammer(t *testing.T, capHint, spansPerTrace int) {
	rec := NewRecorder(8)
	const writers, tracesPerWriter = 8, 50

	stop := make(chan struct{})
	var readersWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range rec.Snapshot() {
					if out := tr.Export(); out == nil || out.Root == nil {
						t.Error("sealed trace exported nil")
						return
					}
				}
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < tracesPerWriter; i++ {
				tr := rec.Start("req", "root", capHint)
				var inner sync.WaitGroup
				for g := 0; g < 4; g++ {
					tr.Retain()
					inner.Add(1)
					go func() {
						defer inner.Done()
						defer tr.Release()
						for s := 0; s < spansPerTrace/4; s++ {
							id := tr.Start("op", Root)
							tr.SetAttr(id, "n", int64(s))
							tr.End(id)
						}
					}()
				}
				tr.Release()
				inner.Wait()
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if _, sealed := rec.Stats(); sealed != writers*tracesPerWriter {
		t.Fatalf("sealed = %d, want %d", sealed, writers*tracesPerWriter)
	}
}
