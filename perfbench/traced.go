package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/service"
	"repro/internal/service/loadctl"
	"repro/internal/store"
)

// The daemon's brownout rule (the cmd/reprod flag default).
const daemonBrownoutRule = "brownout: p99(reprod_sched_queue_wait_seconds) < 250ms over 30s"

// measuredSLORules is the SLO rule set of every measured daemon and of
// the traced stack, which runs the same control loops: the daemon's
// default rules without "gc_pause_p99: p99(reprod_go_gc_pause_seconds) <
// 10ms over 1m". At the GC rates of cold and sweep (one to two dozen
// cycles a minute) that rule breaches on a single pause over 4.1 ms,
// which one stolen vCPU slice causes, and the brownout controller then
// sheds every uncached op for the rest of the window; NOTES.md,
// "Overload visibility", says where the defect stays visible.
var measuredSLORules = []string{
	"queue_wait_p99: p99(reprod_sched_queue_wait_seconds) < 250ms over 1m",
	"overload_rejections: rate(reprod_sched_overload_rejections_total) < 1 over 1m",
}

// measuredFlags are the flags a measured daemon runs with besides the
// deployment settings.
func measuredFlags() []string {
	var args []string
	for _, r := range measuredSLORules {
		args = append(args, "-slo-rule", r)
	}
	return args
}

// stack is the serving stack cmd/reprod wires, built in-process from
// the same public constructors and flag defaults, with the benchmark's
// store decorator and op hook in place.
type stack struct {
	reg   *obs.Registry
	sched *service.Scheduler
	cache *service.Cache
	srv   *http.Server
	base  string

	maxLevel atomic.Int64
	stop     context.CancelFunc
	loops    sync.WaitGroup
	logFile  *os.File
}

// openTiered opens the store the way cmd/reprod does with -store-dir.
func openTiered(dir string) (*store.Tiered[*service.Report], error) {
	disk, err := store.OpenDisk(dir, store.DiskOptions{MaxBytes: 1 << 30})
	if err != nil {
		return nil, err
	}
	tiered, err := store.NewTiered[*service.Report](1024, disk, service.ReportCodec())
	if err != nil {
		disk.Close()
		return nil, err
	}
	return tiered, nil
}

func buildStack(tiered *store.Tiered[*service.Report], tc *tracer, logPath string) (*stack, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(logFile, &slog.HandlerOptions{Level: slog.LevelInfo}))
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, obs.BuildVersion())
	traces := span.NewRecorder(256, span.WithSlowLog(logger, time.Second))
	rules := make([]slo.Rule, 0, len(measuredSLORules))
	for _, src := range measuredSLORules {
		rule, err := slo.ParseRule(src)
		if err != nil {
			logFile.Close()
			return nil, err
		}
		rules = append(rules, rule)
	}
	ring := tsdb.NewRing(reg, 300)
	engine := slo.New(slo.Config{Ring: ring, Registry: reg, Rules: rules, Interval: time.Second, Logger: logger})
	brownout, err := slo.ParseRule(daemonBrownoutRule)
	if err != nil {
		logFile.Close()
		return nil, err
	}
	ctl := loadctl.New(loadctl.Config{Ring: ring, Registry: reg, Rule: brownout, Engine: engine, Logger: logger})
	sched, err := service.NewScheduler(service.SchedulerConfig{
		Workers: runtime.GOMAXPROCS(0), QueueDepth: 64, RetainJobs: 1024, JobTimeout: 2 * time.Minute,
		MaxCost: 4 * time.Minute, StaleCostAfter: 5 * time.Minute, LoadControl: ctl, Metrics: reg, Logger: logger,
	})
	if err != nil {
		logFile.Close()
		return nil, err
	}
	tiered.SetOpHook(func(op string, start time.Time, elapsed time.Duration) {
		traces.Event("store."+op, start, elapsed)
		tc.storeEvent(op, elapsed)
	})
	cache, err := service.NewCacheWithStore(&timedStore{inner: tiered, tc: tc})
	if err != nil {
		sched.Close()
		logFile.Close()
		return nil, err
	}
	app := service.NewServer(sched, cache, service.WithLogger(logger), service.WithTraces(traces),
		service.WithSLO(engine), service.WithHistory(ring), service.WithLoadControl(ctl))
	rp := &replay{sched: sched, cache: cache, tc: tc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", rp.simulate)
	mux.HandleFunc("POST /v1/sweep", rp.sweep)
	mux.HandleFunc("POST /v1/jobs", rp.submitJob)
	mux.Handle("/", app)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		cache.Close()
		logFile.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{
		reg: reg, sched: sched, cache: cache,
		srv:  &http.Server{Handler: tc.wrap(mux), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(), stop: cancel, logFile: logFile,
	}
	st.loops.Add(3)
	go func() {
		defer st.loops.Done()
		if err := st.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("traced server stopped", "error", err)
		}
	}()
	// The daemon's collection loop: SLO tick, then the brownout
	// controller; the benchmark also tracks the highest level reached.
	go func() {
		defer st.loops.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				engine.Tick(now)
				ctl.Tick(now)
				if lvl := int64(ctl.Level()); lvl > st.maxLevel.Load() {
					st.maxLevel.Store(lvl)
				}
			}
		}
	}()
	// Spill backlog sampler: Tiered only exposes its queue depth
	// through Stats.
	go func() {
		defer st.loops.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if !tc.recording.Load() {
					continue
				}
				if d := int64(tiered.Stats().SpillQueueDepth); d > tc.spillMax.Load() {
					tc.spillMax.Store(d)
				}
			}
		}
	}()
	return st, nil
}

// close shuts the stack down in cmd/reprod's order and waits for its
// goroutines.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a drain overrun only delays exit
	st.stop()
	st.sched.Close()
	_ = st.cache.Close() // flush errors do not affect measured numbers
	st.loops.Wait()
	st.logFile.Close()
}

// layerOf maps a span name onto the layer its self time is charged to;
// "" marks glue that no layer claims (the op root and the cache's
// compute callback around admission and the job's wait).
var layerOf = map[string]string{
	"http.client":   "http.wire_us",
	"http.handler":  "http.serve_us",
	"http.encode":   "http.encode_us",
	"spec.decode":   "spec.decode_us",
	"spec.validate": "spec.validate_us",
	"spec.hash":     "spec.hash_us",
	"cache.do":      "cache.lookup_us",
	"cache.acquire": "cache.lookup_us",
	"cache.publish": "cache.lookup_us",
	"store.get":     "store",
	"store.put":     "store",
	"sched.admit":   "sched.admit_us",
	"sched.queue":   "sched.queue",
	"sched.run":     "sched.run",
	"trace.tail":    "trace.tail",
}

// layerSamples collects per-op layer self times and the scheduler's
// own timings of the window's jobs.
type layerSamples struct {
	mu             sync.Mutex
	queueMs        []float64
	runMs          map[string][]float64 // by draw order
	traceTailMs    []float64
	unattributedUs []float64
	perLayer       map[string][]float64 // per-op self-time sums, µs
}

func newLayerSamples() *layerSamples {
	return &layerSamples{runMs: map[string][]float64{}, perLayer: map[string][]float64{}}
}

// fold turns one completed op's spans and jobs into layer samples. Job
// lifetimes become "sched.queue" and "sched.run" spans clipped to the
// span that waited on them, so no interval is charged twice.
func (ls *layerSamples) fold(tr *opTrace, out outcome) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, jr := range tr.jobs {
		created, started, finished := jr.job.Times()
		ls.queueMs = append(ls.queueMs, float64(started.Sub(created))/1e6)
		ls.runMs[jr.order] = append(ls.runMs[jr.order], float64(finished.Sub(started))/1e6)
		parent := jr.parent
		if parent < 0 { // async job: charged to its trace stream request
			for k, s := range tr.spans {
				if s.name == "http.handler" && s.parent == tr.traceReq {
					parent = k
				}
			}
			if tr.traceReq >= 0 {
				eof := tr.spans[tr.traceReq].end
				ls.traceTailMs = append(ls.traceTailMs, float64(eof-tr.since(finished))/1e6)
			}
		}
		if parent < 0 {
			continue
		}
		// Clip to the waiting span: an async job queues partly before its
		// trace stream request starts, and that time belongs to the op's
		// other spans.
		lo, hi := max(tr.spans[parent].start, jr.admitEnd), tr.spans[parent].end
		clip := func(t int64) int64 { return min(max(t, lo), hi) }
		st, fin := clip(tr.since(started)), clip(tr.since(finished))
		tr.spans = append(tr.spans,
			spanRec{name: "sched.queue", parent: parent, start: clip(tr.since(created)), end: st},
			spanRec{name: "sched.run", parent: parent, start: st, end: fin})
		if jr.parent < 0 {
			tr.spans = append(tr.spans, spanRec{name: "trace.tail", parent: parent, start: fin, end: hi})
		}
	}
	self := selfTimes(tr.spans)
	sums := map[string]float64{}
	var attributed float64
	for k, s := range tr.spans {
		layer := layerOf[s.name]
		if layer == "" {
			continue
		}
		us := float64(self[k]) / 1e3
		sums[layer] += us
		attributed += us
	}
	for layer, us := range sums {
		ls.perLayer[layer] = append(ls.perLayer[layer], us)
	}
	ls.unattributedUs = append(ls.unattributedUs, float64(out.latency)/1e3-attributed)
}

// engineCells are the (engine, draw order) pairs the engine probe
// reports, as "engine.step_ns.<engine>.<order>".
var engineCells = [][2]string{
	{"aggregate", "v1"}, {"aggregate", "v2"}, {"agent", "v1"}, {"agent", "v2"},
	{"infinite", "v1"}, {"infinite", "v2"}, {"network", "v1"}, {"network", "v2"},
}

// engineShape is one op shape the engine probe steps.
type engineShape struct {
	cfg   core.Config
	nodes int // ring topology size; 0 for none
	lanes int
}

func shapeCell(spec *service.Spec) [2]string {
	eng := spec.Engine
	switch {
	case spec.Topology != nil:
		eng = "network"
	case spec.N == 0:
		eng = "infinite"
	}
	return [2]string{eng, orderName(spec.DrawOrder)}
}

func shapeOf(spec *service.Spec) engineShape {
	sh := engineShape{cfg: coreConfig(spec, spec.Seed), lanes: 1}
	if spec.Topology != nil {
		sh.nodes = spec.Topology.Nodes
	} else if spec.DrawOrder == "v2" {
		sh.lanes = min(spec.Replications, 32)
	}
	return sh
}

// referenceSpecs give the engine probe a shape for every cell a
// workload's own ops do not cover: the cold workload's shapes.
func referenceSpecs() []*service.Spec {
	q := []float64{0.9, 0.5, 0.4}
	mk := func(s service.Spec) *service.Spec {
		s.Qualities, s.Beta, s.Seed = q, 0.7, 1
		s.Normalize()
		return &s
	}
	return []*service.Spec{
		mk(service.Spec{N: 10_000, Steps: 2_000}),
		mk(service.Spec{N: 10_000, Steps: 1_000, Replications: 32, DrawOrder: "v2"}),
		mk(service.Spec{N: 1_000, Engine: "agent", Steps: 1_000}),
		mk(service.Spec{N: 1_000, Engine: "agent", Steps: 1_000, Replications: 8, DrawOrder: "v2"}),
		mk(service.Spec{Steps: 1_000, Replications: 8}),
		mk(service.Spec{Steps: 1_000, Replications: 8, DrawOrder: "v2"}),
		mk(service.Spec{Steps: 1_000, Topology: &service.Topology{Kind: "ring", Nodes: 100}}),
		mk(service.Spec{Steps: 1_000, Topology: &service.Topology{Kind: "ring", Nodes: 100}, DrawOrder: "v2"}),
	}
}

// stepNs times ns per lane-step of one shape: core.New then Group.Step
// for a one-lane shape of v1, core.NewBlock then BlockGroup.StepBlock
// for v2, stepping until at least 2 ms have passed.
func stepNs(sh engineShape, v2 bool) (float64, error) {
	cfg := sh.cfg
	if sh.nodes > 0 {
		g, err := graph.Ring(sh.nodes)
		if err != nil {
			return 0, err
		}
		cfg.Network = g
	}
	var step func() error
	if v2 {
		b, err := core.NewBlock(cfg, 0, sh.lanes)
		if err != nil {
			return 0, err
		}
		step = b.StepBlock
	} else {
		g, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		step = g.Step
	}
	for k := 0; k < 20; k++ { // warm the engine's buffers
		if err := step(); err != nil {
			return 0, err
		}
	}
	steps := 0
	start := time.Now()
	for time.Since(start) < 2*time.Millisecond {
		for k := 0; k < 16; k++ {
			if err := step(); err != nil {
				return 0, err
			}
		}
		steps += 16
	}
	return float64(time.Since(start)) / float64(steps*sh.lanes), nil
}

// engineProbe measures every cell on up to four of the workload's own
// op shapes (reference shapes where it has none), three times each, and
// reports the median ns per lane-step.
func engineProbe(src *opSource, n int) (map[string]float64, error) {
	shapes := map[[2]string][]engineShape{}
	addSpec := func(spec *service.Spec) {
		c := shapeCell(spec)
		if len(shapes[c]) < 4 {
			shapes[c] = append(shapes[c], shapeOf(spec))
		}
	}
	for i := 0; i < n; i++ {
		o, err := src.at(i)
		if err != nil {
			return nil, err
		}
		if o.sweep != nil {
			for v := range o.sweep.Variants {
				spec := variantSpec(o.sweep, v)
				spec.Normalize()
				addSpec(&spec)
			}
		} else {
			addSpec(o.spec)
		}
	}
	for _, spec := range referenceSpecs() {
		if c := shapeCell(spec); len(shapes[c]) == 0 {
			addSpec(spec)
		}
	}
	out := map[string]float64{}
	for _, c := range engineCells {
		var ns []float64
		for rep := 0; rep < 3; rep++ {
			for _, sh := range shapes[c] {
				v, err := stepNs(sh, c[1] == "v2")
				if err != nil {
					return nil, fmt.Errorf("engine probe %s/%s: %w", c[0], c[1], err)
				}
				ns = append(ns, v)
			}
		}
		out["engine.step_ns."+c[0]+"."+c[1]] = quantile(ns, 0.5)
	}
	return out, nil
}

// collectProbe times tsdb.Ring.Collect over the serving registry.
func collectProbe(reg *obs.Registry) float64 {
	ring := tsdb.NewRing(reg, 4)
	var us []float64
	for k := 0; k < 50; k++ {
		start := time.Now()
		ring.Collect(start)
		us = append(us, float64(time.Since(start))/1e3)
	}
	return quantile(us, 0.5)
}

// tracedRun replays the workload's warm-up and timed ops, on the same
// schedule, against the in-process stack, and returns the per-layer
// metrics, the replay's own window numbers, and how many ops the
// recompute check found wrong.
func tracedRun(ctx context.Context, cfg config, snap *snapshot, runDir string, rc *runContext) (map[string]metric, e2e, int, error) {
	var opens []float64
	var tiered *store.Tiered[*service.Report]
	for k := 0; k < storeOpens; k++ {
		dir := filepath.Join(runDir, fmt.Sprintf("traced-store-%d", k))
		if err := copyStore(snap.dir, dir); err != nil {
			return nil, e2e{}, 0, err
		}
		start := time.Now()
		t, err := openTiered(dir)
		if err != nil {
			return nil, e2e{}, 0, err
		}
		opens = append(opens, time.Since(start).Seconds())
		if k == storeOpens-1 {
			tiered = t
			break
		}
		if err := t.Close(); err != nil {
			return nil, e2e{}, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, e2e{}, 0, err
		}
	}
	tc := newTracer(1 << 20)
	st, err := buildStack(tiered, tc, filepath.Join(runDir, "traced.log"))
	if err != nil {
		tiered.Close()
		return nil, e2e{}, 0, err
	}
	defer st.close()
	cl := newClient(st.base, cfg.wl.conns, snap)
	defer cl.close()
	ls := newLayerSamples()
	keep := cfg.wl.keep
	exec := func(i int, o *op, due time.Time) outcome {
		out := cl.do(i, o, due, i < keep)
		if tr := tc.op(i); tr != nil {
			if out.ok {
				ls.fold(tr, out)
			}
			tc.finish(i)
		}
		return out
	}
	if _, err := cfg.wl.drive(ctx, cfg.wl.source(cfg.seed, purposeWarm, snap), warmup, exec); err != nil {
		return nil, e2e{}, 0, err
	}
	src := cfg.wl.source(cfg.seed, cfg.wl.timed, snap)
	cl.tc = tc
	cache0, sched0 := st.cache.Stats(), st.sched.Stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	tc.recording.Store(true)
	w, te, err := measureWindow(ctx, cfg.wl, src, cfg.dur, exec, os.Getpid())
	tc.recording.Store(false)
	if err != nil {
		return nil, te, 0, err
	}
	runtime.ReadMemStats(&mem1)
	cache1, sched1 := st.cache.Stats(), st.sched.Stats()
	cl.tc = nil
	ops := float64(te.attempted)
	rc.SpanFile = filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.ndjson", cfg.wl.name, cfg.seed))
	if err := tc.writeSpans(rc.SpanFile); err != nil {
		return nil, te, 0, err
	}

	probe := &sweepProbe{workers: runtime.GOMAXPROCS(0)}
	wrong, err := checkWindow(cfg, w, src, probe, rc)
	if err != nil {
		return nil, e2e{}, 0, err
	}
	engines, err := engineProbe(src, min(len(w.outcomes), 256))
	if err != nil {
		return nil, e2e{}, 0, err
	}

	p50 := func(layer string) float64 { return quantile(ls.perLayer[layer], 0.5) }
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	cacheServed := float64(cache1.Hits + cache1.Waits - cache0.Hits - cache0.Waits)
	cacheAll := cacheServed + float64(cache1.Misses-cache0.Misses)
	shed := float64(sched1.Shed - sched0.Shed)
	settled := float64(sched1.Completed + sched1.Failed + sched1.Canceled - sched0.Completed - sched0.Failed - sched0.Canceled)
	tc.smu.Lock()
	getMem, getDisk, put, spill := tc.getMem, tc.getDisk, tc.put, tc.spill
	tc.smu.Unlock()
	taskMs, busyFrac, reuseFrac := probe.metrics()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	m := map[string]metric{
		"http.serve_us":               {p50("http.serve_us"), "us"},
		"http.wire_us":                {p50("http.wire_us"), "us"},
		"http.encode_us":              {p50("http.encode_us"), "us"},
		"spec.decode_us":              {p50("spec.decode_us"), "us"},
		"spec.validate_us":            {p50("spec.validate_us"), "us"},
		"spec.hash_us":                {p50("spec.hash_us"), "us"},
		"cache.lookup_us":             {p50("cache.lookup_us"), "us"},
		"cache.hit_frac":              {ratio(cacheServed, cacheAll), "ratio"},
		"store.get_mem_us":            {quantile(getMem, 0.5), "us"},
		"store.get_disk_us":           {quantile(getDisk, 0.5), "us"},
		"store.get_disk_us.p99":       {quantile(getDisk, 0.99), "us"},
		"store.disk_frac":             {ratio(float64(len(getDisk)), float64(len(getMem)+len(getDisk))), "ratio"},
		"store.put_us":                {quantile(put, 0.5), "us"},
		"store.spill_us":              {quantile(spill, 0.5), "us"},
		"store.spill_queue_max":       {float64(tc.spillMax.Load()), "count"},
		"store.open_s":                {quantile(opens, 0.5), "s"},
		"sched.admit_us":              {p50("sched.admit_us"), "us"},
		"sched.queue_wait_ms":         {quantile(ls.queueMs, 0.5), "ms"},
		"sched.queue_wait_ms.p99":     {quantile(ls.queueMs, 0.99), "ms"},
		"sched.run_ms.v1":             {quantile(ls.runMs["v1"], 0.5), "ms"},
		"sched.run_ms.v1.p99":         {quantile(ls.runMs["v1"], 0.99), "ms"},
		"sched.run_ms.v2":             {quantile(ls.runMs["v2"], 0.5), "ms"},
		"sched.run_ms.v2.p99":         {quantile(ls.runMs["v2"], 0.99), "ms"},
		"sched.shed_frac":             {ratio(shed, shed+settled), "ratio"},
		"loadctl.max_level":           {float64(st.maxLevel.Load()), "level"},
		"sweep.task_ms":               {taskMs, "ms"},
		"sweep.busy_frac":             {busyFrac, "ratio"},
		"sweep.engine_reuse_frac":     {reuseFrac, "ratio"},
		"trace.tail_ms":               {quantile(ls.traceTailMs, 0.5), "ms"},
		"obs.collect_us":              {collectProbe(st.reg), "us"},
		"go.allocs_per_op":            {float64(mem1.Mallocs-mem0.Mallocs) / ops, "count"},
		"go.alloc_bytes_per_op":       {float64(mem1.TotalAlloc-mem0.TotalAlloc) / ops, "B"},
		"go.gc_per_kop":               {float64(mem1.NumGC-mem0.NumGC) * 1e3 / ops, "count"},
		"unattributed_us":             {quantile(ls.unattributedUs, 0.5), "us"},
		"traced.latency_p50_ms":       {te.p50Ms, "ms"},
		"traced.latency_p99_ms":       {te.p99Ms, "ms"},
		"traced.throughput_ops_per_s": {te.tput, "ops/s"},
		"traced.cpu_ms_per_op":        {te.cpuMsPerOp, "ms"},
		"host.steal_frac":             {te.steal, "ratio"},
		"loadgen.lag_p99_ms":          {te.lagP99Ms, "ms"},
	}
	for name, ns := range engines {
		m[name] = metric{ns, "ns"}
	}
	return m, te, wrong, nil
}
