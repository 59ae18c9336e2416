package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDaemonOverloadSmoke floods a deliberately tiny daemon (one
// worker, eight queue slots) with concurrent batch and interactive
// traffic and checks the degradation contract end to end over HTTP:
//
//   - interactive traffic survives at a higher success ratio than
//     batch (priority classes + brownout shedding are class-aware),
//   - every 429 carries a finite Retry-After within [1s, 30s],
//   - /statsz records the brownout controller engaging (level >= 1),
//   - once the flood stops, /v1/slo returns to all-ok.
//
// With OVERLOAD_SNAPSHOT set, the measured outcome is written there
// as JSON for CI trend archiving.
func TestDaemonOverloadSmoke(t *testing.T) {
	t.Parallel()

	const flood = 3 * time.Second

	base, _ := startDaemon(t,
		"-workers", "1", "-queue", "8",
		"-obs-scrape-interval", "250ms",
		"-slo-rule", "interactive_wait_p99: p99(reprod_sched_queue_wait_seconds{class=interactive}) < 500ms over 5s",
		"-slo-rule", "shed_rate: rate(reprod_sched_overload_rejections_total) < 1 over 5s",
		"-brownout-rule", "brownout: p99(reprod_sched_queue_wait_seconds) < 150ms over 1s",
	)

	var seed atomic.Uint64
	var mu sync.Mutex
	counts := map[string]map[int]int{"batch": {}, "interactive": {}}
	retryMin, retryMax := 1<<30, 0
	post := func(class string, steps int) {
		body := fmt.Sprintf(
			`{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": %d, "seed": %d, "priority": %q}`,
			steps, seed.Add(1), class)
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		counts[class][resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 || secs > 30 {
				t.Errorf("429 Retry-After %q, want an integer in [1, 30]", ra)
				return
			}
			retryMin, retryMax = min(retryMin, secs), max(retryMax, secs)
		}
	}

	// Monitor /statsz for the brownout level while the flood runs.
	maxLevel := int64(0)
	monitorDone := make(chan struct{})
	deadline := time.Now().Add(flood)
	go func() {
		defer close(monitorDone)
		for time.Now().Before(deadline) {
			var stats struct {
				Brownout *struct {
					Level int `json:"level"`
				} `json:"brownout"`
			}
			resp, err := http.Get(base + "/statsz")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&stats)
				resp.Body.Close()
			}
			if err == nil && stats.Brownout != nil && int64(stats.Brownout.Level) > atomic.LoadInt64(&maxLevel) {
				atomic.StoreInt64(&maxLevel, int64(stats.Brownout.Level))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// The flood: 8 batch submitters pushing heavy jobs against one
	// worker, 4 interactive submitters with light jobs.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				post("batch", 200_000)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				post("interactive", 2_000)
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	<-monitorDone

	ratio := func(class string) (float64, int) {
		n, ok := 0, 0
		for code, c := range counts[class] {
			n += c
			if code == http.StatusOK {
				ok += c
			}
		}
		if n == 0 {
			t.Fatalf("no %s requests completed", class)
		}
		return float64(ok) / float64(n), n
	}
	mu.Lock()
	batchRatio, batchN := ratio("batch")
	interRatio, interN := ratio("interactive")
	batch429 := counts["batch"][http.StatusTooManyRequests]
	inter429 := counts["interactive"][http.StatusTooManyRequests]
	mu.Unlock()
	t.Logf("overload: batch ok %.0f%% of %d (429s %d), interactive ok %.0f%% of %d (429s %d), max brownout %d",
		batchRatio*100, batchN, batch429, interRatio*100, interN, inter429, atomic.LoadInt64(&maxLevel))

	if batch429 == 0 {
		t.Error("flood produced no 429s; the daemon never hit overload")
	}
	if interRatio <= batchRatio {
		t.Errorf("interactive success ratio %.2f not above batch's %.2f", interRatio, batchRatio)
	}
	if atomic.LoadInt64(&maxLevel) < 1 {
		t.Error("/statsz never reported brownout level >= 1 during the flood")
	}

	// Recovery: every SLO rule back to "ok" once the flood stops. The
	// shed-rate window is 5s, so allow comfortably more than that.
	recoverStart := time.Now()
	var lastStates string
	recovered := false
	for time.Since(recoverStart) < 20*time.Second {
		var status struct {
			Rules []struct {
				Name  string `json:"name"`
				State string `json:"state"`
			} `json:"rules"`
		}
		resp, err := http.Get(base + "/v1/slo")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		allOK := len(status.Rules) > 0
		var states []string
		for _, r := range status.Rules {
			states = append(states, r.Name+"="+r.State)
			if r.State != "ok" {
				allOK = false
			}
		}
		lastStates = strings.Join(states, " ")
		if allOK {
			recovered = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !recovered {
		t.Errorf("SLO rules never returned to all-ok after the flood: %s", lastStates)
	}

	if path := os.Getenv("OVERLOAD_SNAPSHOT"); path != "" {
		snap := map[string]any{
			"batch_requests":       batchN,
			"batch_ok_ratio":       batchRatio,
			"batch_429":            batch429,
			"interactive_requests": interN,
			"interactive_ok_ratio": interRatio,
			"interactive_429":      inter429,
			"max_brownout_level":   atomic.LoadInt64(&maxLevel),
			"retry_after_min_s":    retryMin,
			"retry_after_max_s":    retryMax,
			"slo_recovered":        recovered,
			"recovery_seconds":     time.Since(recoverStart).Seconds(),
		}
		raw, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("write OVERLOAD_SNAPSHOT: %v", err)
		}
	}
}
