package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
)

// optServer spins up the HTTP stack with extra server options.
func optServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched, err := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(8)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sched, cache, opts...))
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return ts, sched
}

// TestSLOEndpointAndStatsz wires an SLO engine into the server and
// checks both faces: GET /v1/slo serves the rule states, and /statsz
// gains the slo section plus the started_at/now timestamps.
func TestSLOEndpointAndStatsz(t *testing.T) {
	t.Parallel()
	sched, err := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	cache, err := NewCache(8)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := slo.ParseRule(
		"queue_wait_p99: p99(reprod_sched_queue_wait_seconds) < 250ms over 1m")
	if err != nil {
		t.Fatal(err)
	}
	engine := slo.New(slo.Config{
		Ring:     tsdb.NewRing(sched.Registry(), 16),
		Registry: sched.Registry(),
		Rules:    []slo.Rule{rule},
		Interval: time.Second,
	})
	ts := httptest.NewServer(NewServer(sched, cache, WithSLO(engine)))
	t.Cleanup(ts.Close)

	base := time.Unix(90_000, 0)
	engine.Tick(base)
	engine.Tick(base.Add(time.Second))

	var status slo.Status
	resp := getJSON(t, ts.URL+"/v1/slo", &status)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo status %d", resp.StatusCode)
	}
	if len(status.Rules) != 1 || status.Rules[0].Name != "queue_wait_p99" {
		t.Fatalf("/v1/slo rules = %+v", status.Rules)
	}
	if status.Rules[0].State != "ok" {
		t.Fatalf("idle daemon rule state = %q, want ok", status.Rules[0].State)
	}
	if status.HistoryLen != 2 {
		t.Fatalf("history_len = %d, want 2", status.HistoryLen)
	}

	var statsz struct {
		StartedAt time.Time   `json:"started_at"`
		Now       time.Time   `json:"now"`
		SLO       *slo.Status `json:"slo"`
	}
	getJSON(t, ts.URL+"/statsz", &statsz)
	if statsz.StartedAt.IsZero() || statsz.Now.IsZero() {
		t.Fatalf("statsz timestamps missing: %+v", statsz)
	}
	if statsz.Now.Before(statsz.StartedAt) {
		t.Fatalf("statsz now %v before started_at %v", statsz.Now, statsz.StartedAt)
	}
	if statsz.SLO == nil || len(statsz.SLO.Rules) != 1 {
		t.Fatalf("statsz slo section = %+v", statsz.SLO)
	}
}

// TestSLOEndpointWithoutEngine pins the unwired behavior: 404 on
// /v1/slo and no slo key in /statsz.
func TestSLOEndpointWithoutEngine(t *testing.T) {
	t.Parallel()
	ts, _ := optServer(t)
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/slo without engine = %d, want 404", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/statsz", &raw)
	if _, ok := raw["slo"]; ok {
		t.Fatal("statsz exposes an slo section without an engine")
	}
	for _, key := range []string{"started_at", "now"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("statsz missing %q", key)
		}
	}
}

// TestDebugTracesMinMSEdgeCases pins the min_ms query contract:
// non-numeric and negative values, and values past what a
// time.Duration holds in milliseconds, are rejected with 400 (not
// silently ignored or wrapped), the filter keeps traces exactly at the
// boundary, and an empty ring serializes as an empty array, not null.
func TestDebugTracesMinMSEdgeCases(t *testing.T) {
	t.Parallel()
	rec := span.NewRecorder(16)
	ts, _ := optServer(t, WithTraces(rec))

	for _, bad := range []string{"abc", "-5", "1.5", "9300000000000"} {
		resp, err := http.Get(ts.URL + "/debug/traces?min_ms=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("min_ms=%q status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Empty ring, no filter: the traces field is [], never null.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-ring status %d", resp.StatusCode)
	}
	if !strings.Contains(body.String(), `"traces":[]`) {
		t.Fatalf("empty ring serialized as %s, want \"traces\":[]", body.String())
	}

	// Two injected traces with exact durations: 50ms and 49ms. The
	// boundary is inclusive — min_ms=50 keeps the 50ms trace.
	start := time.Now().Add(-time.Second)
	rec.Event("slow-op", start, 50*time.Millisecond)
	rec.Event("fast-op", start, 49*time.Millisecond)

	count := func(minMS string) (int, []string) {
		var got tracesResponse
		url := ts.URL + "/debug/traces"
		if minMS != "" {
			url += "?min_ms=" + minMS
		}
		getJSON(t, url, &got)
		names := make([]string, 0, len(got.Traces))
		for _, tr := range got.Traces {
			if tr.Root != nil {
				names = append(names, tr.Root.Name)
			}
		}
		return len(got.Traces), names
	}

	if n, _ := count(""); n != 2 {
		t.Fatalf("unfiltered traces = %d, want 2", n)
	}
	if n, _ := count("0"); n != 2 {
		t.Fatalf("min_ms=0 traces = %d, want 2 (zero is a valid no-op filter)", n)
	}
	n, names := count("50")
	if n != 1 || len(names) != 1 || names[0] != "slow-op" {
		t.Fatalf("min_ms=50 kept %d traces (%v), want exactly the 50ms one", n, names)
	}
	if n, _ := count("51"); n != 0 {
		t.Fatalf("min_ms=51 traces = %d, want 0", n)
	}
	if n, _ := count(strconv.FormatInt(maxMinMS, 10)); n != 0 {
		t.Fatalf("min_ms=%d traces = %d, want 0", maxMinMS, n)
	}
}
