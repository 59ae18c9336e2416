package span

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
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
