package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL plus a shutdown func that triggers the graceful path.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	base, _, stop := startDaemonDebug(t, extraArgs...)
	return base, stop
}

// startDaemonDebug is startDaemon plus the debug listener's base URL,
// which run publishes as a second ready send when -debug-addr is among
// extraArgs (empty otherwise).
func startDaemonDebug(t *testing.T, extraArgs ...string) (string, string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 2) // serving addr, then debug addr when enabled
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "4", "-cache", "8"}, extraArgs...)
	go func() {
		errCh <- run(ctx, args, io.Discard, ready)
	}()
	recv := func(what string) net.Addr {
		t.Helper()
		select {
		case addr := <-ready:
			return addr
		case err := <-errCh:
			t.Fatalf("daemon exited before the %s listener was ready: %v", what, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never published the %s address", what)
		}
		return nil
	}
	addr := recv("serving")
	var debugBase string
	if slices.Contains(args, "-debug-addr") {
		debugBase = "http://" + recv("debug").String()
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("daemon did not stop")
		}
	}
	t.Cleanup(func() { _ = stop() })
	return "http://" + addr.String(), debugBase, stop
}

func TestDaemonServesSimulate(t *testing.T) {
	t.Parallel()

	base, _ := startDaemon(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := `{"n": 2000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 300, "seed": 9}`
	for i, wantCached := range []bool{false, true} {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		var out struct {
			Cached bool      `json:"cached"`
			Regret float64   `json:"regret"`
			Pop    []float64 `json:"popularity"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached != wantCached {
			t.Errorf("request %d cached=%v, want %v", i, out.Cached, wantCached)
		}
		if len(out.Pop) != 3 {
			t.Errorf("request %d popularity %v", i, out.Pop)
		}
	}
}

// TestDaemonServesSweep drives POST /v1/sweep through the daemon with
// -workers set, and checks the sweep counter and the worker count
// surface in /statsz.
func TestDaemonServesSweep(t *testing.T) {
	t.Parallel()

	base, _ := startDaemon(t, "-workers", "2")
	body := `{
		"family": {"qualities": [0.9, 0.5, 0.5], "beta": 0.7},
		"variants": [
			{"n": 1000, "steps": 200, "seed": 31},
			{"n": 2000, "steps": 200, "seed": 32}
		]
	}`
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d (%s)", resp.StatusCode, raw)
	}
	var out struct {
		Variants int `json:"variants"`
		Results  []struct {
			Cached bool      `json:"cached"`
			Regret float64   `json:"regret"`
			Pop    []float64 `json:"popularity"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Variants != 2 || len(out.Results) != 2 {
		t.Fatalf("sweep response %s", raw)
	}
	for i, res := range out.Results {
		if res.Cached || len(res.Pop) != 3 {
			t.Errorf("variant %d: cached=%v popularity=%v", i, res.Cached, res.Pop)
		}
	}

	sresp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	sraw, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Scheduler struct {
			Sweeps  uint64 `json:"sweeps"`
			Workers int    `json:"workers"`
		} `json:"scheduler"`
	}
	if err := json.Unmarshal(sraw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Sweeps != 1 || stats.Scheduler.Workers != 2 {
		t.Errorf("statsz sweeps=%d workers=%d, want 1 and 2 (%s)",
			stats.Scheduler.Sweeps, stats.Scheduler.Workers, sraw)
	}
}

// TestDaemonGracefulShutdown submits work, stops the daemon, and
// checks it exits cleanly (drained) rather than hanging or erroring.
func TestDaemonGracefulShutdown(t *testing.T) {
	t.Parallel()

	base, stop := startDaemon(t)
	body := `{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 200, "seed": 3}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is gone afterwards.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-workers", "0"}, io.Discard, nil); err == nil {
		t.Error("workers=0 accepted")
	}
	if err := run(ctx, []string{"-cache", "-1"}, io.Discard, nil); err == nil {
		t.Error("cache=-1 accepted")
	}
	if err := run(ctx, []string{"-addr", "256.0.0.1:bad"}, io.Discard, nil); err == nil {
		t.Error("bad addr accepted")
	}

	// refused runs the daemon with flag set to val and requires it to
	// fail before serving, with an error containing every want. The
	// ready channel keeps a daemon that wrongly starts from hanging
	// the test.
	refused := func(flag, val string, want ...string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ready := make(chan net.Addr, 2)
		errCh := make(chan error, 1)
		go func() {
			errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", flag, val}, io.Discard, ready)
		}()
		select {
		case err := <-errCh:
			if err == nil {
				t.Errorf("%s %q: run returned nil, want an error", flag, val)
				return
			}
			for _, w := range want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s %q: run = %v, want an error containing %q", flag, val, err, w)
				}
			}
		case <-ready:
			t.Errorf("%s %q accepted: the daemon started serving", flag, val)
			cancel()
			<-errCh
		case <-time.After(10 * time.Second):
			t.Errorf("%s %q: run neither failed nor served within 10s", flag, val)
		}
	}

	// Rules the metrics ring can never read data for would read as
	// healthy forever; the daemon must refuse them instead of serving.
	// The error names the flag, the rule and the defect.
	for _, tc := range []struct{ flag, rule, want string }{
		{"-slo-rule", "gone: p99(reprod_sched_class_queue_wait_seconds) < 250ms over 1m", "no metric family"},
		{"-slo-rule", "label: p99(reprod_sched_queue_wait_seconds{shard=0}) < 250ms over 1m", `no label "shard"`},
		{"-slo-rule", "gauge: p99(reprod_sched_queue_depth) < 10 over 1m", "not a histogram"},
		{"-brownout-rule", "brownout: p99(reprod_sched_gone_seconds) < 250ms over 30s", "no metric family"},
	} {
		name, _, _ := strings.Cut(tc.rule, ":")
		refused(tc.flag, tc.rule, tc.flag, strconv.Quote(name), tc.want)
	}

	// A trace ring needs a slot; a size below one is refused, naming
	// the flag, rather than quietly rounded up.
	refused("-trace-ring", "0", "-trace-ring")
	refused("-trace-ring", "-1", "-trace-ring")

	// -workers is the one parallelism flag; the task-gate flag it
	// replaced is refused, not ignored.
	refused("-sweep-workers", "2", "-sweep-workers")
}

// TestDaemonRestartDurability is the acceptance scenario for the
// tiered persistent store: compute a spec against -store-dir, stop
// the daemon, start a fresh one on the same directory, and the same
// request must answer "cached":true with a bit-identical report — the
// corpus of finished results survives the restart.
func TestDaemonRestartDurability(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	body := `{"n": 5000, "qualities": [0.9, 0.6, 0.5], "beta": 0.7, "steps": 400, "seed": 17}`
	simulate := func(base string) (bool, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate status %d (%s)", resp.StatusCode, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		cached, _ := out["cached"].(bool)
		delete(out, "cached")
		return cached, out
	}

	base, stop := startDaemon(t, "-store-dir", dir)
	cached, first := simulate(base)
	if cached {
		t.Fatal("fresh store answered cached:true")
	}
	// Stop flushes pending spills and fsyncs the segment log.
	if err := stop(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	base2, _ := startDaemon(t, "-store-dir", dir)
	cached, second := simulate(base2)
	if !cached {
		t.Fatal("warm-started daemon recomputed: cached=false after restart")
	}
	// Bit-identical: every field, including each float64 of the
	// popularity vector, round-trips exactly through the disk tier.
	if !reflect.DeepEqual(first, second) {
		t.Errorf("report changed across restart:\nfirst:  %v\nsecond: %v", first, second)
	}

	// The warm hit is visible as a disk-tier hit in /statsz.
	resp, err := http.Get(base2 + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache struct {
			Hits  uint64 `json:"hits"`
			Tiers struct {
				DiskHits   uint64 `json:"disk_hits"`
				Promotions uint64 `json:"promotions"`
				DiskBytes  int64  `json:"disk_bytes"`
			} `json:"tiers"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Tiers.DiskHits != 1 || stats.Cache.Tiers.Promotions != 1 {
		t.Errorf("statsz after warm hit: %s", raw)
	}
	if stats.Cache.Tiers.DiskBytes == 0 {
		t.Errorf("no bytes on disk reported: %s", raw)
	}

	// The promotion ran inside the warm hit's cache.get span, so the
	// trace ring holds that span and no trace of the promotion's own.
	resp, err = http.Get(base2 + "/debug/traces?min_ms=0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ring struct {
		Traces []struct {
			Root struct {
				Name string `json:"name"`
			} `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(raw, &ring); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"cache.get"`) {
		t.Errorf("debug/traces lacks the warm hit's cache.get span:\n%s", raw)
	}
	for _, tr := range ring.Traces {
		if tr.Root.Name == "store.promote" {
			t.Errorf("debug/traces holds a store.promote trace of its own:\n%s", raw)
		}
	}

	// And the promoted entry now hits the memory tier.
	if cached, _ := simulate(base2); !cached {
		t.Error("promoted entry missed")
	}
}

// TestDaemonStoreFlagValidation rejects a negative byte budget.
func TestDaemonStoreFlagValidation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-store-dir", t.TempDir(), "-store-max-bytes", "-1"}, io.Discard, nil); err == nil {
		t.Error("store-max-bytes=-1 accepted")
	}
}
