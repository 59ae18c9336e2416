package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
)

// TestGCPauseRuleBucketEdge drives the default gc_pause_p99 rule
// through a tsdb ring and SLO engine over the runtime collector's
// pause buckets. Twenty pauses with one at 5ms are a p99 under the
// 10ms threshold and must stay ok; one at 12ms must breach. Without a
// bucket edge at the threshold, the 5ms pause would interpolate to a
// p99 of about 14ms.
func TestGCPauseRuleBucketEdge(t *testing.T) {
	t.Parallel()
	var src string
	for _, r := range defaultSLORules {
		if strings.HasPrefix(r, "gc_pause_p99:") {
			src = r
		}
	}
	rule, err := slo.ParseRule(src)
	if err != nil {
		t.Fatalf("default gc_pause_p99 rule %q: %v", src, err)
	}
	for _, tc := range []struct {
		slow float64
		want string
	}{
		{slow: 5e-3, want: "ok"},
		{slow: 12e-3, want: "breach"},
	} {
		reg := obs.NewRegistry()
		pauses := reg.Histogram("reprod_go_gc_pause_seconds", "", obs.GCPauseBuckets())
		eng := slo.New(slo.Config{
			Ring: tsdb.NewRing(reg, 8), Registry: reg, Rules: []slo.Rule{rule}, Interval: time.Second,
		})
		t0 := time.Unix(1_000, 0)
		eng.Tick(t0)
		for i := 0; i < 19; i++ {
			pauses.Observe(float64(100+50*i) * 1e-6)
		}
		pauses.Observe(tc.slow)
		eng.Tick(t0.Add(time.Second))
		st := eng.Status(t0.Add(time.Second))
		if len(st.Rules) != 1 {
			t.Fatalf("status holds %d rules", len(st.Rules))
		}
		if got := st.Rules[0]; got.State != tc.want {
			v := "none"
			if got.Value != nil {
				v = fmt.Sprintf("%.4gs", *got.Value)
			}
			t.Errorf("19 short pauses and one of %gms: p99 %s, state %s, want %s",
				tc.slow*1e3, v, got.State, tc.want)
		}
	}
}

// TestDaemonShutdownSequence checks the graceful-drain ordering: once
// shutdown begins, /readyz flips to 503 {"draining":true} while
// /healthz keeps answering 200 and the listener stays open for the
// whole -drain-grace window, so load balancers can stop routing before
// connections start failing.
func TestDaemonShutdownSequence(t *testing.T) {
	t.Parallel()

	base, stop := startDaemon(t, "-drain-grace", "2s")

	get := func(path string) (int, string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, "", err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, "", err
		}
		return resp.StatusCode, string(raw), nil
	}

	// Before shutdown: ready and live.
	if code, body, err := get("/readyz"); err != nil || code != http.StatusOK || strings.Contains(body, `"draining":true`) {
		t.Fatalf("pre-shutdown readyz: code=%d body=%s err=%v", code, body, err)
	}

	stopErr := make(chan error, 1)
	go func() { stopErr <- stop() }()

	// Within the grace window the listener must still be up, readiness
	// must fail with the draining marker, and liveness must still pass.
	deadline := time.Now().Add(2 * time.Second)
	flipped := false
	for time.Now().Before(deadline) {
		code, body, err := get("/readyz")
		if err != nil {
			t.Fatalf("listener closed before readiness flipped: %v", err)
		}
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, `"draining":true`) {
				t.Fatalf("draining readyz body %q lacks draining:true", body)
			}
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("readiness never flipped to 503 during the grace window")
	}
	if code, _, err := get("/healthz"); err != nil || code != http.StatusOK {
		t.Fatalf("liveness while draining: code=%d err=%v (healthz must stay 200)", code, err)
	}

	if err := <-stopErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, _, err := get("/healthz"); err == nil {
		t.Error("daemon still serving after shutdown completed")
	}
}

// TestDaemonMetricsSmoke boots the daemon, serves traffic (tagged with
// a client request ID) across the engine × draw-order grid, scrapes
// GET /metrics, and strict-checks the exposition format — including
// the step-cost profiler, runtime collector, and build-info families.
// It also exercises the span-tracing surface end to end: the async
// job's span tree on /v1/jobs/{id}/spans and the trace ring on
// /debug/traces. The SLO surface rides along: /v1/slo must settle to
// every default rule reporting ok, and the /debug/dash operator page
// on the debug listener must be a self-contained HTML document with
// inline SVG sparklines. With METRICS_SNAPSHOT / SPANS_SNAPSHOT /
// DASH_SNAPSHOT set, the scraped page, span tree, and dashboard are
// written there so CI can archive them as build artifacts.
func TestDaemonMetricsSmoke(t *testing.T) {
	t.Parallel()

	base, debugBase, _ := startDaemonDebug(t,
		"-debug-addr", "127.0.0.1:0", "-obs-scrape-interval", "50ms")

	// Traffic: one simulate carrying an inbound X-Request-ID.
	body := `{"n": 1500, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 200, "seed": 41}`
	req, err := http.NewRequest(http.MethodPost, base+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "smoke-req-41")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "smoke-req-41" {
		t.Errorf("inbound request ID not echoed: got %q", got)
	}

	// A request without an ID gets a generated one.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if id := hresp.Header.Get("X-Request-ID"); !obs.ValidRequestID(id) {
		t.Errorf("generated request ID %q is not valid", id)
	}

	// Fill in the rest of the step-cost grid (the first simulate was
	// aggregate × v1): each combination must produce its own
	// reprod_engine_step_cost_ns series.
	for _, extra := range []string{
		`{"n": 1500, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 200, "seed": 42, "engine": "agent"}`,
		`{"n": 1500, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 200, "seed": 43, "draw_order": "v2"}`,
		`{"n": 1500, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 200, "seed": 44, "engine": "agent", "draw_order": "v2"}`,
	} {
		eresp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(extra))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, eresp.Body)
		eresp.Body.Close()
		if eresp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %s: status %d", extra, eresp.StatusCode)
		}
	}

	// An async job's span tree: 409/404 while in flight, 200 with the
	// full admission → queue-wait → run tree once the job settles and
	// the submitting request has finished.
	jresp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"n": 1500, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 200, "seed": 45}`))
	if err != nil {
		t.Fatal(err)
	}
	var jobBody struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&jobBody); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusAccepted || jobBody.ID == "" {
		t.Fatalf("job submit: status %d id %q", jresp.StatusCode, jobBody.ID)
	}
	var spanTree []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		sresp, err := http.Get(base + "/v1/jobs/" + jobBody.ID + "/spans")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sresp.StatusCode == http.StatusOK {
			spanTree = raw
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span tree never served: last status %d body %s", sresp.StatusCode, raw)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		`"POST /v1/jobs"`, `"validate"`, `"admission"`, `"queue.wait"`, `"run"`, `"replication"`,
	} {
		if !strings.Contains(string(spanTree), want) {
			t.Errorf("span tree lacks %s:\n%s", want, spanTree)
		}
	}
	if path := os.Getenv("SPANS_SNAPSHOT"); path != "" {
		if err := os.WriteFile(path, spanTree, 0o644); err != nil {
			t.Fatalf("write SPANS_SNAPSHOT: %v", err)
		}
	}

	// The trace ring retains the synchronous request traces, keyed by
	// the inbound request ID and covering the cache layer.
	dresp, err := http.Get(base + "/debug/traces?min_ms=0")
	if err != nil {
		t.Fatal(err)
	}
	dpage, err := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces status %d", dresp.StatusCode)
	}
	for _, want := range []string{`"smoke-req-41"`, `"cache.get"`, `"cache.put"`} {
		if !strings.Contains(string(dpage), want) {
			t.Errorf("debug/traces lacks %s:\n%s", want, dpage)
		}
	}

	// /statsz serves the runtime section from the same collector that
	// backs the reprod_go_* gauges.
	zresp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	zpage, err := io.ReadAll(zresp.Body)
	zresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"runtime"`, `"goroutines"`, `"heap_alloc_bytes"`,
		`"started_at"`, `"now"`, `"slo"`,
	} {
		if !strings.Contains(string(zpage), want) {
			t.Errorf("statsz lacks %s: %s", want, zpage)
		}
	}

	// /v1/slo settles to every default rule ok: the engine ticks every
	// 50ms here, so within the deadline each rule has history and the
	// idle daemon violates none of them.
	var sloStatus struct {
		HistoryLen int `json:"history_len"`
		Rules      []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"rules"`
	}
	sloDeadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(base + "/v1/slo")
		if err != nil {
			t.Fatal(err)
		}
		sraw, err := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/slo status %d: %s", sresp.StatusCode, sraw)
		}
		if err := json.Unmarshal(sraw, &sloStatus); err != nil {
			t.Fatalf("/v1/slo decode: %v (%s)", err, sraw)
		}
		allOK := len(sloStatus.Rules) == 3 && sloStatus.HistoryLen > 0
		for _, r := range sloStatus.Rules {
			allOK = allOK && r.State == "ok"
		}
		if allOK {
			break
		}
		if time.Now().After(sloDeadline) {
			t.Fatalf("SLO rules never settled to ok: %s", sraw)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The operator dashboard serves from the debug listener as one
	// self-contained document with inline SVG sparklines.
	dashResp, err := http.Get(debugBase + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	dash, err := io.ReadAll(dashResp.Body)
	dashResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dashResp.StatusCode != http.StatusOK {
		t.Fatalf("debug/dash status %d", dashResp.StatusCode)
	}
	for _, want := range []string{"<!DOCTYPE html", "<svg", "queue_wait_p99"} {
		if !strings.Contains(string(dash), want) {
			t.Errorf("debug/dash lacks %s", want)
		}
	}
	if path := os.Getenv("DASH_SNAPSHOT"); path != "" {
		if err := os.WriteFile(path, dash, 0o644); err != nil {
			t.Fatalf("write DASH_SNAPSHOT: %v", err)
		}
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("metrics Content-Type %q, want %q", ct, obs.ContentType)
	}
	if err := obs.CheckExposition(string(page)); err != nil {
		t.Errorf("exposition format: %v\n%s", err, page)
	}
	for _, want := range []string{
		`reprod_http_requests_total{route="POST /v1/simulate",code="2xx"} 4`,
		"reprod_http_request_duration_seconds_bucket",
		"reprod_sched_queue_wait_seconds_bucket",
		"reprod_sched_run_duration_seconds_bucket",
		`reprod_sched_jobs_total{outcome="done",class="interactive"} 5`,
		`reprod_cache_requests_total{result="miss"} 4`,
		`reprod_store_len{tier="memory"} 4`,
		"reprod_uptime_seconds",
		`reprod_engine_step_cost_ns{engine="aggregate",draw_order="v1"}`,
		`reprod_engine_step_cost_ns{engine="agent",draw_order="v1"}`,
		`reprod_engine_step_cost_ns{engine="aggregate",draw_order="v2"}`,
		`reprod_engine_step_cost_ns{engine="agent",draw_order="v2"}`,
		`reprod_build_info{version="`,
		"reprod_go_goroutines",
		"reprod_go_heap_alloc_bytes",
		"reprod_go_gc_pause_seconds_bucket",
		`reprod_engine_step_cost_samples_total{engine="aggregate",draw_order="v1"}`,
		`reprod_engine_step_cost_last_sample_age_seconds{engine="aggregate",draw_order="v1"}`,
		`reprod_slo_status{rule="queue_wait_p99"} 0`,
		`reprod_slo_breaches_total{rule="queue_wait_p99"} 0`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page lacks %q", want)
		}
	}

	if path := os.Getenv("METRICS_SNAPSHOT"); path != "" {
		if err := os.WriteFile(path, page, 0o644); err != nil {
			t.Fatalf("write METRICS_SNAPSHOT: %v", err)
		}
	}
}
