package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// testServer spins up the full HTTP stack.
func testServer(t *testing.T, cfg SchedulerConfig, cacheSize int) (*httptest.Server, *Scheduler, *Cache) {
	t.Helper()
	sched, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(cacheSize)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sched, cache))
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return ts, sched, cache
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, raw)
		}
	}
	return resp
}

const acceptanceSpec = `{"n": 10000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 500, "seed": 77}`

// TestSimulateEndToEnd is the acceptance scenario: a 3-option N=10⁴
// spec served over HTTP matches a direct core run with the same seed,
// and the repeat is answered from cache with an identical report.
func TestSimulateEndToEnd(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 8}, 16)

	resp, raw := postJSON(t, ts.URL+"/v1/simulate", acceptanceSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var first simulateResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request claims cached")
	}

	g, err := core.New(core.Config{
		N: 10000, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if first.Regret != want.Regret {
		t.Errorf("served regret %v, want %v", first.Regret, want.Regret)
	}
	for j := range want.Popularity {
		if first.Popularity[j] != want.Popularity[j] {
			t.Errorf("served popularity[%d] = %v, want %v", j, first.Popularity[j], want.Popularity[j])
		}
	}

	// Identical repeat: cache hit, byte-identical report payload.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/simulate", acceptanceSpec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, raw2)
	}
	var second simulateResponse
	if err := json.Unmarshal(raw2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	stripCached := func(b []byte) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "cached")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if stripCached(raw) != stripCached(raw2) {
		t.Errorf("cached report differs:\n%s\n%s", raw, raw2)
	}

	// The hit is visible in /statsz.
	var stats statszResponse
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.Cache.Hits < 1 {
		t.Errorf("statsz cache hits = %d, want ≥ 1", stats.Cache.Hits)
	}
	if stats.Scheduler.Completed != 1 {
		t.Errorf("statsz completed = %d, want 1 (repeat must not re-run)", stats.Scheduler.Completed)
	}
}

// TestSimulateSingleFlight fires concurrent identical requests and
// checks the simulation executed exactly once (run under -race).
func TestSimulateSingleFlight(t *testing.T) {
	t.Parallel()

	ts, sched, cache := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 8}, 16)
	const clients = 16
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
				strings.NewReader(acceptanceSpec))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d (%s)", i, codes[i], bodies[i])
		}
	}
	if done := sched.Stats().Completed; done != 1 {
		t.Errorf("simulation ran %d times for %d identical requests, want 1", done, clients)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", st.Misses)
	}
	// Every response carries the same report values.
	var want simulateResponse
	if err := json.Unmarshal(bodies[0], &want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		var got simulateResponse
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			t.Fatal(err)
		}
		if got.Regret != want.Regret || got.SpecHash != want.SpecHash {
			t.Errorf("client %d diverged: %s", i, bodies[i])
		}
	}
}

func TestSimulateBadRequests(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 2}, 4)
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"n": `},
		{"unknown field", `{"n": 10, "qualities": [0.9], "beta": 0.7, "steps": 10, "turbo": true}`},
		// Regression: a second JSON document used to be silently
		// ignored, so a concatenated body decoded as its first spec.
		{"trailing document", `{"n": 10, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 10}{"junk": 1}`},
		{"trailing garbage", `{"n": 10, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 10} trailing`},
		{"invalid beta", `{"n": 10, "qualities": [0.9, 0.5], "beta": 7, "steps": 10}`},
		{"no steps", `{"n": 10, "qualities": [0.9, 0.5], "beta": 0.7}`},
		{"oversized work", fmt.Sprintf(`{"n": 10, "qualities": [0.9, 0.5], "beta": 0.7, "steps": %d, "replications": 100}`, MaxSteps)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/simulate", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d (%s), want 400", resp.StatusCode, raw)
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body %q not structured", raw)
			}
		})
	}
}

// TestQueueFullResponds429 saturates the single worker and checks both
// endpoints shed load with 429 + Retry-After.
func TestQueueFullResponds429(t *testing.T) {
	t.Parallel()

	ts, sched, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 1}, 4)
	slowBody := `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 1}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", slowBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: status %d (%s)", resp.StatusCode, raw)
	}
	var blocker jobResponse
	if err := json.Unmarshal(raw, &blocker); err != nil {
		t.Fatal(err)
	}
	blockerJob, err := sched.Job(blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer blockerJob.Cancel()
	deadline := time.Now().Add(5 * time.Second)
	for blockerJob.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// One slot in the queue, then everything else must bounce.
	resp, raw = postJSON(t, ts.URL+"/v1/jobs", `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d (%s)", resp.StatusCode, raw)
	}
	var queued jobResponse
	if err := json.Unmarshal(raw, &queued); err != nil {
		t.Fatal(err)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/jobs", `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("async over capacity: status %d (%s), want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp, raw = postJSON(t, ts.URL+"/v1/simulate", `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 4}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sync over capacity: status %d (%s), want 429", resp.StatusCode, raw)
	}

	// Cancel the queued job via the API, then the blocker directly.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("cancel status %d", dresp.StatusCode)
	}
}

// TestSweepEndpoint drives POST /v1/sweep end to end: per-variant
// results identical to the equivalent /v1/simulate specs, per-variant
// cache fills visible to later traffic in both directions, and
// validation errors mapped to 400.
func TestSweepEndpoint(t *testing.T) {
	t.Parallel()

	ts, sched, _ := testServer(t, SchedulerConfig{Workers: 4, QueueDepth: 8}, 32)
	sweepBody := `{
		"family": {"qualities": [0.9, 0.5, 0.5], "beta": 0.7},
		"variants": [
			{"n": 1000, "steps": 200, "seed": 11},
			{"n": 2000, "steps": 200, "seed": 12, "replications": 2},
			{"n": 0, "steps": 150, "seed": 13}
		]
	}`
	resp, raw := postJSON(t, ts.URL+"/v1/sweep", sweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var sr sweepResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Variants != 3 || sr.CachedVariants != 0 || len(sr.Results) != 3 {
		t.Fatalf("sweep response shape %s", raw)
	}
	for i, res := range sr.Results {
		if res.Cached || res.Report == nil {
			t.Fatalf("variant %d: cached=%v report=%v", i, res.Cached, res.Report)
		}
	}

	// Variant 0 equals the same spec served via /v1/simulate — and the
	// sweep already filled its cache entry, so the simulate is a hit
	// with the identical report.
	resp, raw = postJSON(t, ts.URL+"/v1/simulate",
		`{"n": 1000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 200, "seed": 11}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, raw)
	}
	var sim simulateResponse
	if err := json.Unmarshal(raw, &sim); err != nil {
		t.Fatal(err)
	}
	if !sim.Cached {
		t.Error("simulate after sweep missed the per-variant cache fill")
	}
	if sim.Regret != sr.Results[0].Regret || sim.SpecHash != sr.Results[0].SpecHash {
		t.Errorf("simulate %v/%s diverged from sweep variant %v/%s",
			sim.Regret, sim.SpecHash, sr.Results[0].Regret, sr.Results[0].SpecHash)
	}
	if done := sched.Stats().Completed; done != 1 {
		t.Errorf("completed = %d, want 1 (sweep only; simulate must hit cache)", done)
	}

	// Re-posting the sweep answers every variant from cache without a
	// new job.
	resp, raw = postJSON(t, ts.URL+"/v1/sweep", sweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat sweep status %d: %s", resp.StatusCode, raw)
	}
	var sr2 sweepResponse
	if err := json.Unmarshal(raw, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.CachedVariants != 3 {
		t.Errorf("repeat sweep cached %d variants, want 3", sr2.CachedVariants)
	}
	if done := sched.Stats().Completed; done != 1 {
		t.Errorf("completed = %d after repeat sweep, want 1", done)
	}

	// The sweep counter surfaces in /statsz.
	var stats statszResponse
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.Scheduler.Sweeps != 1 {
		t.Errorf("statsz sweeps = %d, want 1", stats.Scheduler.Sweeps)
	}

	for name, body := range map[string]string{
		"no variants":   `{"family": {"qualities": [0.9, 0.5], "beta": 0.7}, "variants": []}`,
		"bad family":    `{"family": {"qualities": [0.9, 0.5], "beta": 7}, "variants": [{"n": 10, "steps": 10, "seed": 1}]}`,
		"bad variant":   `{"family": {"qualities": [0.9, 0.5], "beta": 0.7}, "variants": [{"n": 10, "steps": 0, "seed": 1}]}`,
		"unknown field": `{"family": {"qualities": [0.9, 0.5], "beta": 0.7}, "variants": [{"n": 10, "steps": 10, "seed": 1}], "turbo": true}`,
		"trailing junk": `{"family": {"qualities": [0.9, 0.5], "beta": 0.7}, "variants": [{"n": 10, "steps": 10, "seed": 1}]}{"x":1}`,
		"summed work": `{"family": {"qualities": [0.9, 0.5], "beta": 0.7}, "variants": [
			{"n": 1000000, "engine": "agent", "steps": 10000, "seed": 1},
			{"n": 1000000, "engine": "agent", "steps": 10000, "seed": 2}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d (%s), want 400", resp.StatusCode, raw)
			}
		})
	}
}

// TestCancelResponseReflectsCancel is the regression test for DELETE
// returning the racy pre-cancel snapshot: canceling a queued job must
// answer with the terminal canceled state, and the canceled job must
// not keep its queue slot.
func TestCancelResponseReflectsCancel(t *testing.T) {
	t.Parallel()

	ts, sched, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 2}, 4)
	slowBody := `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 21}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", slowBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit status %d (%s)", resp.StatusCode, raw)
	}
	var blocker jobResponse
	if err := json.Unmarshal(raw, &blocker); err != nil {
		t.Fatal(err)
	}
	blockerJob, err := sched.Job(blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer blockerJob.Cancel()
	deadline := time.Now().Add(5 * time.Second)
	for blockerJob.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/jobs",
		`{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 22}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit status %d (%s)", resp.StatusCode, raw)
	}
	var queued jobResponse
	if err := json.Unmarshal(raw, &queued); err != nil {
		t.Fatal(err)
	}

	del := func(id string) jobResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer dresp.Body.Close()
		body, err := io.ReadAll(dresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s status %d (%s)", id, dresp.StatusCode, body)
		}
		var jr jobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}

	// Queued job: the response must already be terminal, not "queued".
	jr := del(queued.ID)
	if jr.Status != JobCanceled {
		t.Errorf("DELETE queued job returned status %q, want %q", jr.Status, JobCanceled)
	}
	if jr.CancelRequested {
		t.Error("terminal cancel response still flags cancel_requested")
	}

	// Running job: it stops at its next step, so the cancel settles
	// within the handler's wait budget and the response is terminal
	// too (cancel_requested would only appear under extreme load).
	jr = del(blocker.ID)
	if jr.Status != JobCanceled && !jr.CancelRequested {
		t.Errorf("DELETE running job returned %q without cancel_requested", jr.Status)
	}
}

// TestJobLifecycleAndTrace drives the async flow: submit, poll,
// report, and NDJSON trace streaming.
func TestJobLifecycleAndTrace(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 8}, 4)
	body := `{"n": 1000, "qualities": [0.85, 0.5], "beta": 0.7, "steps": 200, "seed": 5, "trace_every": 20}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, raw)
	}
	var job jobResponse
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.SpecHash == "" {
		t.Fatalf("incomplete submission response: %s", raw)
	}

	var got jobResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &got)
		if got.Status == JobDone || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Status != JobDone {
		t.Fatalf("job stuck in %s (%s)", got.Status, got.Error)
	}
	if got.Report == nil || got.Report.Steps != 200 {
		t.Fatalf("done job report %+v", got.Report)
	}
	if got.Created.IsZero() || got.Started == nil || got.Finished == nil {
		t.Errorf("done job missing timestamps: created=%v started=%v finished=%v",
			got.Created, got.Started, got.Finished)
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(tresp.Body)
	var lastT float64
	for sc.Scan() {
		var row map[string]float64
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("trace line %d: %v (%s)", lines, err, sc.Text())
		}
		for _, k := range []string{"t", "group_reward", "q0", "q1"} {
			if _, ok := row[k]; !ok {
				t.Fatalf("trace line missing %q: %s", k, sc.Text())
			}
		}
		lastT = row["t"]
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 10 { // steps 1, 21, ..., 181
		t.Errorf("trace lines = %d, want 10", lines)
	}
	if lastT != 181 {
		t.Errorf("last trace t = %v, want 181", lastT)
	}
}

func TestJobEndpointsErrorPaths(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 8}, 4)
	if resp := getJSON(t, ts.URL+"/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/nope/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status %d, want 404", resp.StatusCode)
	}

	// A job without trace_every has no trace.
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", `{"n": 100, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 50, "seed": 6}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, raw)
	}
	var job jobResponse
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var got jobResponse
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &got)
		if got.Status == JobDone || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got.Status != JobDone {
		t.Fatalf("job stuck in %s", got.Status)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("traceless job trace status %d, want 404", resp.StatusCode)
	}

	// Wrong method on a valid route.
	resp2, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate status %d, want 405", resp2.StatusCode)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 8}, 4)
	var health map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz body %v", health)
	}
	var stats statszResponse
	if resp := getJSON(t, ts.URL+"/statsz", &stats); resp.StatusCode != http.StatusOK {
		t.Errorf("statsz status %d", resp.StatusCode)
	}
	if stats.Scheduler.Workers != 2 || stats.Scheduler.QueueDepth != 8 {
		t.Errorf("statsz scheduler %+v", stats.Scheduler)
	}
	if stats.Cache.Capacity != 4 {
		t.Errorf("statsz cache %+v", stats.Cache)
	}
	if stats.UptimeSeconds < 0 {
		t.Errorf("uptime %v", stats.UptimeSeconds)
	}
}

// TestSimulateBodyLimit rejects oversized payloads.
func TestSimulateBodyLimit(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 2}, 4)
	var huge bytes.Buffer
	huge.WriteString(`{"n": 10, "beta": 0.7, "steps": 10, "qualities": [0.9`)
	for huge.Len() < maxBodyBytes+1024 {
		huge.WriteString(", 0.5")
	}
	huge.WriteString("]}")
	resp, _ := postJSON(t, ts.URL+"/v1/simulate", huge.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body status %d, want 400", resp.StatusCode)
	}
}

// TestSimulateJobTimeoutResponds504 checks the review scenario where a
// heavy-but-admitted synchronous job could pin a worker forever:
// with a server-side JobTimeout the request comes back 504 and the
// worker is free to serve the next job.
func TestSimulateJobTimeoutResponds504(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{
		Workers: 1, QueueDepth: 4, JobTimeout: 10 * time.Millisecond,
	}, 4)

	heavy := fmt.Sprintf(
		`{"n": 10000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": %d, "seed": 9}`,
		MaxSteps)
	resp, raw := postJSON(t, ts.URL+"/v1/simulate", heavy)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}

	// The worker must be free again: a small job completes.
	resp, raw = postJSON(t, ts.URL+"/v1/simulate", acceptanceSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout status = %d (%s), want 200", resp.StatusCode, raw)
	}
}

// TestTraceStreamsWhileRunning is the regression test for the trace
// endpoint blocking (409) until completion: a running job's rows must
// arrive over GET /v1/jobs/{id}/trace incrementally, with the first
// lines readable while the job is still running, and the stream must
// end cleanly when the job does — under v1, v2, and a topology.
func TestTraceStreamsWhileRunning(t *testing.T) {
	t.Parallel()

	ts, sched, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 2}, 4)
	// Deliberately long jobs (~seconds of simulated work) tracing
	// every 1000 steps, so early rows exist milliseconds in while the
	// job keeps running long after.
	for _, body := range []string{
		`{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 41, "trace_every": 1000}`,
		`{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 41, "trace_every": 1000, "draw_order": "v2"}`,
		`{"qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 41, "trace_every": 1000, "topology": {"kind": "ring", "nodes": 100}}`,
	} {
		streamWhileRunning(t, ts.URL, sched, body)
	}
}

// streamWhileRunning submits one long traced job, reads its first rows
// while it runs, then cancels it and checks the stream ends.
func streamWhileRunning(t *testing.T, url string, sched *Scheduler, body string) {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, raw)
	}
	var submitted jobResponse
	if err := json.Unmarshal(raw, &submitted); err != nil {
		t.Fatal(err)
	}
	job, err := sched.Job(submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Cancel()

	tresp, err := http.Get(url + "/v1/jobs/" + submitted.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("%s: trace status %d, want 200 while running", body, tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}

	sc := bufio.NewScanner(tresp.Body)
	var ts0 []float64
	for len(ts0) < 3 && sc.Scan() {
		var row map[string]float64
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("trace line: %v (%s)", err, sc.Text())
		}
		ts0 = append(ts0, row["t"])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ts0) < 3 {
		t.Fatalf("%s: stream ended before delivering early rows", body)
	}
	// The load-bearing assertion: rows arrived while the job was
	// still running, i.e. the stream is incremental, not post-hoc.
	if st := job.Status(); st != JobRunning {
		t.Fatalf("%s: job already %s after first rows; cannot prove streaming", body, st)
	}
	for i, want := range []float64{1, 1001, 2001} {
		if ts0[i] != want {
			t.Errorf("%s: row %d t=%v, want %v", body, i, ts0[i], want)
		}
	}

	// Cancel the job; the stream must terminate rather than hang.
	job.Cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: trace stream did not end after job terminated", body)
	}
}

// TestTraceStreamTracelessRunning404s: a running job that did not ask
// for a trace answers 404 immediately instead of streaming nothing.
func TestTraceStreamTracelessRunning404s(t *testing.T) {
	t.Parallel()

	ts, sched, _ := testServer(t, SchedulerConfig{Workers: 1, QueueDepth: 2}, 4)
	body := `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 40000000, "seed": 43}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, raw)
	}
	var submitted jobResponse
	if err := json.Unmarshal(raw, &submitted); err != nil {
		t.Fatal(err)
	}
	job, err := sched.Job(submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Cancel()
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+submitted.ID+"/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("traceless running job trace status %d, want 404", resp.StatusCode)
	}
}

// TestCancelCompletedJobUnambiguous is the regression test for DELETE
// on an already-completed job: the response must present the terminal
// result state with an explicit "canceled": false — not a view the
// client could read as a successful cancellation.
func TestCancelCompletedJobUnambiguous(t *testing.T) {
	t.Parallel()

	ts, _, _ := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 8}, 4)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", `{"n": 500, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 100, "seed": 51}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, raw)
	}
	var submitted jobResponse
	if err := json.Unmarshal(raw, &submitted); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var got jobResponse
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+submitted.ID, &got)
		if got.Status == JobDone || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got.Status != JobDone {
		t.Fatalf("job stuck in %s", got.Status)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+submitted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	body, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d (%s)", dresp.StatusCode, body)
	}
	var out struct {
		Canceled        *bool     `json:"canceled"`
		Status          JobStatus `json:"status"`
		CancelRequested bool      `json:"cancel_requested"`
		Report          *Report   `json:"report"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Canceled == nil {
		t.Fatalf("DELETE response lacks explicit \"canceled\" field: %s", body)
	}
	if *out.Canceled {
		t.Errorf("completed job reported canceled=true: %s", body)
	}
	if out.Status != JobDone || out.CancelRequested {
		t.Errorf("DELETE view status=%s cancel_requested=%v, want done/false", out.Status, out.CancelRequested)
	}
	if out.Report == nil {
		t.Errorf("terminal result state missing from DELETE response: %s", body)
	}
}
