// Command perfbench is reprod's benchmark. It builds a warm-start
// store snapshot through the daemon's own /v1/sweep, starts the shipped
// cmd/reprod binary on a fresh copy of it, drives one named workload
// over loopback HTTP for a fixed window, checks every response, and
// prints the end-to-end metrics. With -trace 1 it then replays the same
// ops against an in-process stack built from the daemon's public
// constructors, timing each call into a layer's public API, and prints
// the per-layer metrics instead.
//
// Run it through run.sh, which builds this program and the daemon from
// the checkout:
//
//	bash perfbench/run.sh --workload hits --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. NOTES.md describes the
// workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix and its client model.
type workload struct {
	name  string
	open  bool    // open loop at rate; closed loop otherwise
	rate  float64 // ops/s (open loop)
	conns int
	// sample is how many ops the recompute check re-executes; keep is
	// how many leading ops keep their report bytes for it.
	sample, keep int
	// source returns the op stream for a purpose (timed or warm-up).
	source func(seed, purpose uint64, snap *snapshot) *opSource
	// timed is the purpose of the timed window's stream.
	timed uint64
}

var workloads = map[string]workload{
	"hits": {name: "hits", conns: 1, sample: 32, keep: 2_000, timed: purposeHitsKeys,
		source: func(seed, purpose uint64, snap *snapshot) *opSource {
			return &opSource{keys: hitsKeys(seed, purpose, 1<<20), snap: snap}
		}},
	"cold": {name: "cold", open: true, rate: 60, conns: 2, sample: 32, keep: math.MaxInt, timed: purposeCold,
		source: func(seed, purpose uint64, _ *snapshot) *opSource {
			return &opSource{gen: func(i int) (*op, error) { return coldOp(seed, purpose, i) }}
		}},
	"sweep": {name: "sweep", conns: 1, sample: 8, keep: 400, timed: purposeSweep,
		source: func(seed, purpose uint64, _ *snapshot) *opSource {
			return &opSource{gen: func(i int) (*op, error) { return sweepOpAt(seed, purpose, i) }}
		}},
}

// Run shape shared by every workload.
const (
	setupStarts = 5               // daemon warm starts per run; setup_s is their median
	storeOpens  = 3               // store opens in the traced run; store.open_s is their median
	warmup      = 2 * time.Second // untimed ops before each window
	// closedPrepare bounds how many closed-loop ops are generated ahead
	// of a window, per second of it.
	closedPrepare = 80
)

// drive runs ops of src for dur under the workload's client model.
func (wl workload) drive(ctx context.Context, src *opSource, dur time.Duration, exec func(int, *op, time.Time) outcome) (window, error) {
	if wl.open {
		return openLoop(ctx, src, int(wl.rate*dur.Seconds()), wl.rate, wl.conns, exec)
	}
	if err := src.prepare(int(closedPrepare * dur.Seconds())); err != nil {
		return window{}, err
	}
	return closedLoop(ctx, src, dur, exec)
}

type config struct {
	wl      workload
	seed    uint64
	dur     time.Duration
	trace   bool
	daemon  string
	workDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "hits", "workload: hits, cold or sweep")
	seed := fs.Uint64("seed", pinnedSeed, "seed every request is generated from")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1 replays the ops in-process and prints per-layer metrics")
	daemon := fs.String("daemon", "", "path of the reprod binary")
	workDir := fs.String("work-dir", ".bench_build/run", "directory for per-run stores and logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *daemon == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload hits|cold|sweep, -seconds > 0, -trace 0|1 and -daemon")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, daemon: *daemon, workDir: *workDir}
	res, err := runBench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records what a reader needs to tell a disturbed host from
// a slow program, plus the run's overload and correctness findings.
type runContext struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Seconds      float64  `json:"seconds"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	CPUModel     string   `json:"cpu_model"`
	StealShare   float64  `json:"host_steal_share"`
	QuietSteal   float64  `json:"quiet_parts_steal_share"`
	QuietParts   string   `json:"quiet_parts"`
	LagP99Ms     float64  `json:"loadgen_lag_p99_ms"`
	SnapRecords  int      `json:"snapshot_records"`
	SnapBytes    int64    `json:"snapshot_bytes"`
	SnapBuildS   float64  `json:"snapshot_build_s"`
	Overload     overload `json:"overload"`
	Digest       string   `json:"report_digest"`
	PinnedDigest string   `json:"pinned_digest,omitempty"`
	Checked      int      `json:"recomputed_ops"`
	Mismatches   []string `json:"mismatches,omitempty"`
	SpanFile     string   `json:"span_file,omitempty"`
	// Probe is the default-flags overload probe of a traced hits run.
	Probe  *probeResult `json:"default_flags_probe,omitempty"`
	Errors []string     `json:"errors,omitempty"`
}

// e2e is one window's end-to-end numbers.
type e2e struct {
	setupS, p50Ms, p99Ms, tput, okFrac, cpuMsPerOp, rssMB float64
	attempted, failed                                     int
	lagP99Ms, steal, quietSteal                           float64
	quietParts, parts                                     int
}

func runBench(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	runDir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.wl.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rc := runContext{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.dur.Seconds(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	began := time.Now()
	snap, err := buildSnapshot(ctx, cfg.daemon, filepath.Join(runDir, "snapshot"), filepath.Join(runDir, "snapshot.log"), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("build snapshot: %w", err)
	}
	rc.SnapRecords, rc.SnapBytes, rc.SnapBuildS = len(snap.ops), snap.bytes, time.Since(began).Seconds()

	// The load generator runs on one P: the lighter client leaves the
	// daemon more of the host and makes closed-loop hand-offs steadier.
	// The traced run's in-process stack gets the default back.
	procs := runtime.GOMAXPROCS(1)
	e, w, src, err := untracedRun(ctx, cfg, snap, runDir, &rc)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	probe := &sweepProbe{workers: runtime.GOMAXPROCS(0)}
	wrong, err := checkWindow(cfg, w, src, probe, &rc)
	if err != nil {
		return nil, err
	}
	rc.StealShare, rc.QuietSteal, rc.LagP99Ms = e.steal, e.quietSteal, e.lagP99Ms
	rc.QuietParts = fmt.Sprintf("%d of %d", e.quietParts, e.parts)
	res := &result{Correct: len(rc.Mismatches) == 0, Attempted: e.attempted, Failed: e.failed + wrong, Metrics: map[string]metric{
		"setup_s":              {e.setupS, "s"},
		"latency_p50_ms":       {e.p50Ms, "ms"},
		"latency_p99_ms":       {e.p99Ms, "ms"},
		"throughput_ops_per_s": {e.tput, "ops/s"},
		"success_frac":         {e.okFrac, "ratio"},
		"cpu_ms_per_op":        {e.cpuMsPerOp, "ms"},
		"peak_rss_mb":          {e.rssMB, "MB"},
	}}
	fmt.Fprintf(stdout, "# %s seed=%d window=%s: %d ops, %d failed\n", cfg.wl.name, cfg.seed, cfg.dur, e.attempted, e.failed)
	printMetrics(stdout, "end-to-end", res.Metrics)

	if cfg.trace {
		layers, te, wrong, err := tracedRun(ctx, cfg, snap, runDir, &rc)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		fmt.Fprintf(stdout, "# traced replay: %d ops, %d failed; untraced vs traced: p50 %.4f vs %.4f ms, p99 %.4f vs %.4f ms, %.1f vs %.1f ops/s\n",
			te.attempted, te.failed, e.p50Ms, te.p50Ms, e.p99Ms, te.p99Ms, e.tput, te.tput)
		printMetrics(stdout, "per-layer", layers)
		res.Metrics, res.Attempted, res.Failed = layers, te.attempted, te.failed+wrong
		res.Correct = len(rc.Mismatches) == 0
		if cfg.wl.name == "hits" {
			if rc.Probe, err = overloadProbe(ctx, cfg, snap, runDir); err != nil {
				return nil, fmt.Errorf("overload probe: %w", err)
			}
			fmt.Fprintf(stdout, "# default-flags overload probe: %s\n", rc.Probe)
		}
	}
	ctxLine, err := json.Marshal(map[string]runContext{"context": rc})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(ctxLine))
	return res, nil
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-10s %-32s %14.6g %s\n", title, n, ms[n].Value, ms[n].Unit)
	}
}

// untracedRun measures the workload against the shipped daemon.
func untracedRun(ctx context.Context, cfg config, snap *snapshot, runDir string, rc *runContext) (e2e, window, *opSource, error) {
	var e e2e
	var setups []float64
	var d *daemon
	for k := 0; k < setupStarts; k++ {
		dir := filepath.Join(runDir, fmt.Sprintf("store-%d", k))
		if err := copyStore(snap.dir, dir); err != nil {
			return e, window{}, nil, err
		}
		dk, setup, err := startDaemon(ctx, cfg.daemon, dir, filepath.Join(runDir, fmt.Sprintf("daemon-%d.log", k)), measuredFlags()...)
		if err != nil {
			return e, window{}, nil, err
		}
		setups = append(setups, setup.Seconds())
		if k == setupStarts-1 {
			d = dk
			break
		}
		dk.stop()
		if err := os.RemoveAll(dir); err != nil {
			return e, window{}, nil, err
		}
	}
	stopped := false
	stopDaemon := func() {
		if !stopped {
			stopped = true
			d.stop()
		}
	}
	defer stopDaemon()

	cl := newClient("http://"+d.addr, cfg.wl.conns, snap)
	defer cl.close()
	keep := cfg.wl.keep
	exec := func(i int, o *op, due time.Time) outcome { return cl.do(i, o, due, i < keep) }
	if _, err := cfg.wl.drive(ctx, cfg.wl.source(cfg.seed, purposeWarm, snap), warmup, exec); err != nil {
		return e, window{}, nil, err
	}
	src := cfg.wl.source(cfg.seed, cfg.wl.timed, snap)
	pid := d.cmd.Process.Pid
	gc0, slow0, err := gcCounts(cl.hc, "http://"+d.addr)
	if err != nil {
		return e, window{}, nil, err
	}
	w, e, err := measureWindow(ctx, cfg.wl, src, cfg.dur, exec, pid)
	if err != nil {
		return e, window{}, nil, err
	}
	gc1, slow1, err := gcCounts(cl.hc, "http://"+d.addr)
	if err != nil {
		return e, window{}, nil, err
	}
	e.setupS = quantile(setups, 0.5)
	if e.rssMB, err = peakRSSMB(pid); err != nil {
		return e, window{}, nil, err
	}
	if rc.Overload, err = readOverload(cl.hc, "http://"+d.addr); err != nil {
		return e, window{}, nil, err
	}
	rc.Overload.GCCycles, rc.Overload.GCSlowPauses = gc1-gc0, slow1-slow0
	cl.close()
	stopDaemon()
	if rc.Overload.MaxLevel, err = maxBrownoutLevel(d.logPath); err != nil {
		return e, window{}, nil, err
	}
	for _, out := range w.outcomes {
		if out.done && !out.ok && len(rc.Errors) < 10 {
			rc.Errors = append(rc.Errors, out.err)
		}
	}
	return e, w, src, nil
}

// checkWindow runs the output checks that need the whole window: the
// recompute of a seeded sample and, at the pinned seed, the report
// digest. Every mismatch is recorded in rc; it returns how many ops the
// client had accepted that the recompute found wrong.
func checkWindow(cfg config, w window, src *opSource, probe *sweepProbe, rc *runContext) (int, error) {
	checked, bad, err := checkSample(w, src, cfg.seed, cfg.wl.sample, probe)
	if err != nil {
		return 0, err
	}
	rc.Checked += checked
	rc.Mismatches = append(rc.Mismatches, bad...)
	for _, out := range w.outcomes {
		if out.done && !out.ok && !isOverload(out.err) && !strings.HasPrefix(out.err, "transport") {
			rc.Mismatches = append(rc.Mismatches, out.err)
		}
	}
	// A window whose first pinOps ops did not all succeed has no digest;
	// its failures are already counted.
	digest := windowDigest(w)
	if digest == "" {
		return len(bad), nil
	}
	if rc.Digest == "" {
		rc.Digest = digest
	} else if digest != rc.Digest {
		rc.Mismatches = append(rc.Mismatches, fmt.Sprintf("traced run digest %s differs from untraced %s", digest, rc.Digest))
	}
	if cfg.seed == pinnedSeed {
		pin, err := pinnedDigest(cfg.wl.name)
		if err != nil {
			return 0, err
		}
		rc.PinnedDigest = pin
		if digest != pin {
			rc.Mismatches = append(rc.Mismatches, fmt.Sprintf("report digest %s, pinned %s", digest, pin))
		}
	}
	return len(bad), nil
}

// isOverload reports whether an op failed by a non-2xx status rather
// than by a wrong output.
func isOverload(msg string) bool {
	return strings.HasPrefix(msg, "status ") || strings.HasPrefix(msg, "submit status ")
}

// overload is what the daemon says about load shedding after a window.
type overload struct {
	MaxLevel    int               `json:"loadctl_max_level"`
	LevelAtEnd  int               `json:"loadctl_level_at_end"`
	Escalations uint64            `json:"loadctl_escalations"`
	Sheds       map[string]uint64 `json:"sheds"` // "class/reason" → count
	SLOBreaches map[string]uint64 `json:"slo_breaches"`
	SLOStates   map[string]string `json:"slo_states"`
	// GC cycles the daemon completed in the timed window, and how many
	// of them paused longer than slowGCPause: a few such pauses put the
	// default gc_pause_p99 rule in breach.
	GCCycles     uint64 `json:"gc_cycles"`
	GCSlowPauses uint64 `json:"gc_slow_pauses"`
}

// readOverload reads /statsz, /v1/slo and the shed counters of /metrics.
func readOverload(hc *http.Client, base string) (overload, error) {
	ov := overload{Sheds: map[string]uint64{}, SLOBreaches: map[string]uint64{}, SLOStates: map[string]string{}}
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	body, err := get("/statsz")
	if err != nil {
		return ov, err
	}
	var st struct {
		Brownout *struct {
			Level       int    `json:"level"`
			Escalations uint64 `json:"escalations"`
		} `json:"brownout"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return ov, fmt.Errorf("decode /statsz: %w", err)
	}
	if st.Brownout != nil {
		ov.LevelAtEnd, ov.Escalations = st.Brownout.Level, st.Brownout.Escalations
	}
	if body, err = get("/v1/slo"); err != nil {
		return ov, err
	}
	var sl struct {
		Rules []struct {
			Name     string `json:"name"`
			State    string `json:"state"`
			Breaches uint64 `json:"breaches"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(body, &sl); err != nil {
		return ov, fmt.Errorf("decode /v1/slo: %w", err)
	}
	for _, r := range sl.Rules {
		ov.SLOBreaches[r.Name], ov.SLOStates[r.Name] = r.Breaches, r.State
	}
	if body, err = get("/metrics"); err != nil {
		return ov, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, "reprod_sched_overload_rejections_total{")
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		var n float64
		if _, err := fmt.Sscan(val, &n); err != nil || n == 0 {
			continue
		}
		var class, reason string
		for _, kv := range strings.Split(labels, ",") {
			k, v, _ := strings.Cut(kv, "=")
			v = strings.Trim(v, `"`)
			switch k {
			case "class":
				class = v
			case "reason":
				reason = v
			}
		}
		ov.Sheds[class+"/"+reason] = uint64(n)
	}
	return ov, nil
}

// errNoOps reports a window in which no op ran.
var errNoOps = errors.New("no ops completed in the window")

// slowGCPause is the upper bound, in seconds, of the daemon's GC pause
// histogram bucket below the default gc_pause_p99 threshold of 10ms.
const slowGCPause = 0.004096

// gcCounts reads the daemon's completed GC cycles and how many of them
// paused longer than slowGCPause, from /metrics.
func gcCounts(hc *http.Client, base string) (cycles, slow uint64, err error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	var count, fast float64
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var n float64
		switch name {
		case "reprod_go_gc_cycles_total", "reprod_go_gc_pause_seconds_count",
			fmt.Sprintf(`reprod_go_gc_pause_seconds_bucket{le="%g"}`, slowGCPause):
			if _, err := fmt.Sscan(val, &n); err != nil {
				return 0, 0, fmt.Errorf("parse %s: %w", name, err)
			}
		default:
			continue
		}
		found++
		switch {
		case name == "reprod_go_gc_cycles_total":
			cycles = uint64(n)
		case strings.HasSuffix(name, "_count"):
			count = n
		default:
			fast = n
		}
	}
	if found != 3 {
		return 0, 0, fmt.Errorf("/metrics has %d of the 3 GC series", found)
	}
	return cycles, uint64(count - fast), nil
}
