package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
)

// newSpanServer spins up the HTTP stack with span tracing enabled.
func newSpanServer(t *testing.T) (*httptest.Server, *span.Recorder) {
	t.Helper()
	sched, err := NewScheduler(SchedulerConfig{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(16)
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder(32)
	ts := httptest.NewServer(NewServer(sched, cache, WithTraces(rec)))
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return ts, rec
}

// countSpanNames walks an exported tree tallying span names.
func countSpanNames(n *span.Node, counts map[string]int) {
	if n == nil {
		return
	}
	counts[n.Name]++
	for _, c := range n.Children {
		countSpanNames(c, counts)
	}
}

// findSpan returns the first node with the given name, depth-first.
func findSpan(n *span.Node, name string) *span.Node {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

// TestSimulateSpanTree checks the acceptance shape of a traced
// synchronous request: one /v1/simulate call yields a sealed trace in
// the ring whose tree covers validation, admission, queue wait, the
// run with its replication spans, and the cache write-back.
func TestSimulateSpanTree(t *testing.T) {
	t.Parallel()

	ts, rec := newSpanServer(t)
	body := `{"n": 2000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 100, "seed": 7}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "span-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", resp.StatusCode)
	}

	// The middleware releases the trace just after writing the
	// response, so the sealed trace may land in the ring a beat after
	// the client sees the 200.
	var export *span.TraceJSON
	deadline := time.Now().Add(5 * time.Second)
	for export == nil && time.Now().Before(deadline) {
		for _, tr := range rec.Snapshot() {
			if tr.RequestID() == "span-req-1" {
				export = tr.Export()
			}
		}
		if export == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if export == nil {
		t.Fatal("traced request never sealed into the ring")
	}
	if export.RequestID != "span-req-1" {
		t.Errorf("export request_id = %q", export.RequestID)
	}
	if export.Root == nil || export.Root.Name != "POST /v1/simulate" {
		t.Fatalf("root span = %+v, want POST /v1/simulate", export.Root)
	}
	counts := map[string]int{}
	countSpanNames(export.Root, counts)
	for _, want := range []string{
		"validate", "cache.get", "admission", "queue.wait", "run", "replication", "cache.put",
	} {
		if counts[want] == 0 {
			t.Errorf("span tree lacks %q (got %v)", want, counts)
		}
	}
	run := findSpan(export.Root, "run")
	if run == nil {
		t.Fatal("no run span")
	}
	if run.Attrs["engine"] != "aggregate" {
		t.Errorf(`run engine attr = %v, want "aggregate"`, run.Attrs["engine"])
	}
	if run.Attrs["draw_order"] != "v1" {
		t.Errorf(`run draw_order attr = %v, want "v1"`, run.Attrs["draw_order"])
	}
	if export.DroppedSpans != 0 {
		t.Errorf("dropped spans = %d", export.DroppedSpans)
	}
}

// TestBacklogJobSpans blocks a single-shard scheduler, queues four
// specs submitted with their own traces behind the blocker, and checks
// every job's trace still carries its queue-wait, its run span, and
// its own replication span nested under that run span — a job that
// waited in a backlog must not lose its trace.
func TestBacklogJobSpans(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 8})
	rec := span.NewRecorder(16)

	blocker := validSpec()
	blocker.Steps = 40_000_000
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for bjob.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bjob.Status() != JobRunning {
		t.Fatal("blocker never started")
	}

	var jobs []*Job
	for i := 0; i < 4; i++ {
		spec := validSpec()
		spec.Seed = uint64(300 + i)
		spec.N = 1000 * (i + 1)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		reqID := fmt.Sprintf("backlog-%d", i)
		tr := rec.Start(reqID, "test.submit", 0)
		job, err := s.SubmitSpanned(spec, hash, reqID, tr, span.Root)
		if err != nil {
			t.Fatal(err)
		}
		tr.End(span.Root)
		// Drop the submitter's reference: the scheduler's per-job
		// reference alone must keep the trace open until the job
		// settles.
		tr.Release()
		jobs = append(jobs, job)
	}
	bjob.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if job.Status() != JobDone {
			t.Fatalf("job %d status %s: %v", i, job.Status(), job.Err())
		}
	}

	for i, job := range jobs {
		tr := job.SpanTrace()
		if tr == nil {
			t.Fatalf("job %d has no span trace", i)
		}
		export := tr.Export()
		if export == nil {
			t.Fatalf("job %d trace not sealed after settle", i)
		}
		counts := map[string]int{}
		countSpanNames(export.Root, counts)
		for _, want := range []string{"queue.wait", "run", "replication"} {
			if counts[want] == 0 {
				t.Errorf("job %d span tree lacks %q (got %v)", i, want, counts)
			}
		}
		run := findSpan(export.Root, "run")
		if run == nil {
			t.Fatalf("job %d has no run span", i)
		}
		// The job's task span must be nested under its own run span,
		// not a sibling of it.
		if task := findSpan(run, "replication"); task == nil {
			t.Errorf("job %d: replication span is not a descendant of the run span", i)
		}
	}
}

// TestJobSpansEndpointErrors covers the ladder of /v1/jobs/{id}/spans
// failures: unknown job ids answer 404, and a server running without
// a span recorder answers 404 for real jobs too.
func TestJobSpansEndpointErrors(t *testing.T) {
	t.Parallel()

	ts, _ := newSpanServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/does-not-exist/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job spans status %d, want 404", resp.StatusCode)
	}

	// Tracing disabled: the job exists but recorded no spans.
	plain, _, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 4}, 4)
	presp, raw := postJSON(t, plain.URL+"/v1/jobs", `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 50, "seed": 3}`)
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", presp.StatusCode, raw)
	}
	var jobBody struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &jobBody); err != nil {
		t.Fatalf("decode submit response: %v (%s)", err, raw)
	}
	sresp, err := http.Get(plain.URL + "/v1/jobs/" + jobBody.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job spans status %d, want 404", sresp.StatusCode)
	}

	// /debug/traces without a recorder is also a 404.
	dresp, err := http.Get(plain.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("debug/traces without recorder status %d, want 404", dresp.StatusCode)
	}
}
