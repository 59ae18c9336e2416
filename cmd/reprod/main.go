// Command reprod is the simulation-serving daemon: it exposes the
// library through internal/service's HTTP API with a bounded job
// scheduler (one queue per priority class, which every -workers
// worker takes from), a batched sweep engine (POST /v1/sweep), a gate
// of -workers slots that the replications of every job, solo or sweep,
// share, and a tiered result store — an in-memory LRU front
// and, with -store-dir set, a crash-safe on-disk segment log behind
// it, so computed results survive restarts and the server warm-starts
// answering previously computed specs "cached":true. It shuts down
// gracefully, draining in-flight jobs and flushing the store, on
// SIGINT/SIGTERM.
//
// Example:
//
//	reprod -addr :8080 -workers 8 -queue 64 -cache 1024 \
//	  -store-dir /var/lib/reprod -store-max-bytes 1073741824
//	curl -s localhost:8080/v1/simulate -d \
//	  '{"n": 10000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 1000, "seed": 1}'
//	# restart the daemon; the same request now answers "cached":true
//	curl -s localhost:8080/v1/sweep -d '{
//	  "family": {"qualities": [0.9, 0.5, 0.5], "beta": 0.7},
//	  "variants": [{"n": 1000, "steps": 1000, "seed": 1},
//	               {"n": 100000, "steps": 1000, "seed": 2}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/service"
	"repro/internal/service/loadctl"
	"repro/internal/store"
)

// ruleFlags collects repeatable -slo-rule occurrences.
type ruleFlags []string

func (r *ruleFlags) String() string { return strings.Join(*r, "; ") }

func (r *ruleFlags) Set(s string) error {
	*r = append(*r, s)
	return nil
}

// defaultSLORules is the rule set evaluated when no -slo-rule is
// given: queue wait p99, overload shed rate, and GC pause p99 — the
// three signals that between them say "is this daemon serving well".
var defaultSLORules = []string{
	"queue_wait_p99: p99(reprod_sched_queue_wait_seconds) < 250ms over 1m",
	"overload_rejections: rate(reprod_sched_overload_rejections_total) < 1 over 1m",
	"gc_pause_p99: p99(reprod_go_gc_pause_seconds) < 10ms over 1m",
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is canceled or serving
// fails. If ready is non-nil, the bound serving address is sent on it
// once the listener is up, followed by the debug listener's address
// when -debug-addr is set (used by tests to serve on :0; size the
// channel for two sends).
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "jobs running at once, and simulation tasks computing at once across all jobs (also scales -queue and -max-cost)")
		queue      = fs.Int("queue", 64, "queued jobs per worker: admission control sheds load once workers × queue jobs wait")
		cache      = fs.Int("cache", 1024, "cached reports (0 disables storage, keeps single-flight)")
		retain     = fs.Int("retain", 1024, "finished jobs kept queryable")
		jobTime    = fs.Duration("job-timeout", 2*time.Minute, "per-job wall-clock limit once running (0 disables)")
		drainFor   = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight work")
		drainGrace = fs.Duration("drain-grace", 0, "pause between failing readiness (/readyz 503) and closing listeners, so load balancers stop routing first")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		storeDir   = fs.String("store-dir", "", "directory for the persistent result store (empty = in-memory only)")
		storeMax   = fs.Int64("store-max-bytes", 1<<30, "byte budget of the on-disk result store before segment GC (0 = unlimited)")
		debugAddr  = fs.String("debug-addr", "", "listen address for net/http/pprof profiling (empty = disabled; never exposed on -addr)")
		traceRing  = fs.Int("trace-ring", 256, "completed span traces retained for /debug/traces")
		traceSlow  = fs.Duration("trace-slow", time.Second, "log any request trace at least this long (0 disables)")
		scrapeInt  = fs.Duration("obs-scrape-interval", time.Second, "metrics history capture cadence (SLO evaluation tick)")
		obsHistory = fs.Int("obs-history", 300, "registry snapshots retained for SLO windows and /debug/dash")
		maxCost    = fs.Duration("max-cost", 4*time.Minute, "predicted wall-clock admission budget per worker (workers × max-cost in all) once the step-cost profiler is warm (0 disables cost admission)")
		staleCost  = fs.Duration("stale-cost-after", 5*time.Minute, "profiler sample age past which cost admission reverts to the static work bound")
		brownout   = fs.String("brownout-rule",
			"brownout: p99(reprod_sched_queue_wait_seconds) < 250ms over 30s",
			`SLO-style rule driving adaptive load shedding (empty disables the brownout controller)`)
		version = fs.Bool("version", false, "print the build version and exit")
	)
	var sloRules ruleFlags
	fs.Var(&sloRules, "slo-rule",
		`SLO rule "name: fn(metric) < threshold over window [budget N%]"; repeatable (default: queue wait p99, shed rate, GC pause p99)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(logw, "reprod %s %s\n", obs.BuildVersion(), runtime.Version())
		return nil
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(logw, &slog.HandlerOptions{Level: level}))

	// One registry backs the whole stack. It exists before the
	// scheduler because the brownout controller — which the scheduler's
	// admission path consults — needs the snapshot ring and SLO engine
	// wired over the same registry first.
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, obs.BuildVersion())
	// Span tracing: the recorder retains the last -trace-ring completed
	// request traces for /debug/traces and logs any trace slower than
	// -trace-slow through the daemon logger.
	if *traceRing <= 0 {
		return fmt.Errorf("bad -trace-ring %d: must be positive", *traceRing)
	}
	var slowOpts []span.Option
	if *traceSlow > 0 {
		slowOpts = append(slowOpts, span.WithSlowLog(logger, *traceSlow))
	}
	traces := span.NewRecorder(*traceRing, slowOpts...)
	// SLO engine: a snapshot ring over the registry plus the (default
	// or -slo-rule) rule set, ticking every -obs-scrape-interval for
	// the daemon's lifetime. /v1/slo and /statsz read it on the serving
	// listener; /debug/dash renders it on the debug listener.
	if *scrapeInt <= 0 {
		return fmt.Errorf("bad -obs-scrape-interval %v: must be positive", *scrapeInt)
	}
	ruleSrc := []string(sloRules)
	if len(ruleSrc) == 0 {
		ruleSrc = defaultSLORules
	}
	rules := make([]slo.Rule, 0, len(ruleSrc))
	for _, src := range ruleSrc {
		rule, err := slo.ParseRule(src)
		if err != nil {
			return fmt.Errorf("bad -slo-rule: %w", err)
		}
		rules = append(rules, rule)
	}
	ring := tsdb.NewRing(reg, *obsHistory)
	engine := slo.New(slo.Config{
		Ring:     ring,
		Registry: reg,
		Rules:    rules,
		Interval: *scrapeInt,
		Logger:   logger,
	})
	// Brownout controller: adaptive load shedding driven by the
	// -brownout-rule pressure signal plus the SLO engine's burn states.
	// The scheduler consults its level on every admission.
	var ctl *loadctl.Controller
	var brownoutRule *slo.Rule
	if *brownout != "" {
		rule, err := slo.ParseRule(*brownout)
		if err != nil {
			return fmt.Errorf("bad -brownout-rule: %w", err)
		}
		brownoutRule = &rule
		ctl = loadctl.New(loadctl.Config{
			Ring:     ring,
			Registry: reg,
			Rule:     rule,
			Engine:   engine,
			Logger:   logger,
		})
	}

	// Result storage: in-proc LRU alone, or — with -store-dir — the
	// LRU fronting a crash-safe disk segment log, so the cache
	// warm-starts across restarts. The cache owns the backend and
	// flushes it on Close.
	var resultCache *service.Cache
	var err error
	if *storeDir != "" {
		opening := time.Now()
		disk, err := store.OpenDisk(*storeDir, store.DiskOptions{MaxBytes: *storeMax})
		if err != nil {
			return err
		}
		openTook := time.Since(opening)
		tiered, err := store.NewTiered[*service.Report](*cache, disk, service.ReportCodec())
		if err != nil {
			disk.Close()
			return err
		}
		// Background spills surface in the trace ring as single-span
		// traces: they have no request to attach to. A read-through
		// promotion runs inside its request's cache.get span, so it
		// gets no trace of its own.
		tiered.SetOpHook(func(op string, start time.Time, elapsed time.Duration) {
			if op == "spill" {
				traces.Event("store.spill", start, elapsed)
			}
		})
		if resultCache, err = service.NewCacheWithStore(tiered); err != nil {
			tiered.Close()
			return err
		}
		logger.Info("persistent store opened",
			"dir", *storeDir, "max_bytes", *storeMax, "warm_keys", disk.Len(), "open_duration", openTook)
	} else {
		if resultCache, err = service.NewCache(*cache); err != nil {
			return err
		}
	}
	// Closed last: scheduler drain can still fill the cache, and the
	// close flushes pending spills to disk.
	defer resultCache.Close()

	schedCfg := service.SchedulerConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		RetainJobs:     *retain,
		JobTimeout:     *jobTime,
		MaxCost:        *maxCost,
		StaleCostAfter: *staleCost,
		Metrics:        reg,
		Logger:         logger,
	}
	if ctl != nil {
		schedCfg.LoadControl = ctl
	}
	sched, err := service.NewScheduler(schedCfg)
	if err != nil {
		return err
	}
	serverOpts := []service.ServerOption{
		service.WithLogger(logger), service.WithTraces(traces),
		service.WithSLO(engine), service.WithHistory(ring),
	}
	if ctl != nil {
		serverOpts = append(serverOpts, service.WithLoadControl(ctl))
	}
	app := service.NewServer(sched, resultCache, serverOpts...)
	if err := checkRules(reg, rules, brownoutRule); err != nil {
		sched.Close()
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sched.Close()
		return err
	}
	srv := &http.Server{
		Handler:           app,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// pprof lives on its own listener, never on the serving port:
	// profiles expose memory contents and can stall the runtime, so the
	// serving address (which faces load balancers and, transitively,
	// clients) must not route to them. -debug-addr should bind a
	// loopback or otherwise firewalled interface.
	var debugSrv *http.Server
	var debugLn net.Listener
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			sched.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// The operator dashboard rides the same firewalled listener as
		// pprof: self-contained HTML over the snapshot ring, with system
		// panels above the SLO rule table.
		dmux.Handle("GET /debug/dash", engine.DashHandler(obs.BuildVersion(), []slo.DashSeries{
			{Title: "req/s", Unit: "/s", Kind: slo.ExprRate,
				Sel: tsdb.Selector{Metric: "reprod_http_requests_total"}},
			{Title: "queue wait p99", Unit: "s", Kind: slo.ExprQuantile, Q: 0.99,
				Sel: tsdb.Selector{Metric: "reprod_sched_queue_wait_seconds"}},
			{Title: "queue depth", Kind: slo.ExprValue,
				Sel: tsdb.Selector{Metric: "reprod_sched_queue_depth"}},
			{Title: "brownout", Kind: slo.ExprValue,
				Sel: tsdb.Selector{Metric: "reprod_brownout_level"}},
			{Title: "goroutines", Kind: slo.ExprValue,
				Sel: tsdb.Selector{Metric: "reprod_go_goroutines"}},
			{Title: "heap", Unit: "B", Kind: slo.ExprValue,
				Sel: tsdb.Selector{Metric: "reprod_go_heap_alloc_bytes"}},
		}))
		debugSrv = &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener stopped", "error", err)
			}
		}()
		logger.Info("pprof serving", "debug_addr", dln.Addr().String())
		debugLn = dln
	}

	// One collection loop drives both control planes: the SLO engine's
	// Tick snapshots the registry into the ring and evaluates the
	// rules, then the brownout controller reads the fresh window.
	go func() {
		ticker := time.NewTicker(*scrapeInt)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-ticker.C:
				engine.Tick(now)
				if ctl != nil {
					ctl.Tick(now)
				}
			}
		}
	}()
	if ready != nil {
		ready <- ln.Addr()
		// A second send reports the debug listener (tests binding
		// -debug-addr :0 need its resolved port); absent when disabled.
		if debugLn != nil {
			ready <- debugLn.Addr()
		}
	}
	logger.Info("serving",
		"addr", ln.Addr().String(), "workers", *workers, "queue", *queue,
		"cache", *cache, "job_timeout", *jobTime)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if debugSrv != nil {
			debugSrv.Close()
		}
		sched.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown, in dependency order: fail readiness first so
	// load balancers stop sending work, give them -drain-grace to
	// notice, then close listeners and finish in-flight requests, then
	// stop admissions and drain the scheduler's backlog.
	logger.Info("shutdown: draining", "budget", *drainFor, "grace", *drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	app.StartDrain()
	if *drainGrace > 0 {
		select {
		case <-time.After(*drainGrace):
		case <-shutdownCtx.Done():
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown: http", "error", err)
	}
	if debugSrv != nil {
		debugSrv.Close() // profiling requests do not hold up a drain
	}
	// Stop admissions and let queued + running jobs finish.
	drained := make(chan struct{})
	go func() {
		sched.Close()
		close(drained)
	}()
	select {
	case <-drained:
		logger.Info("shutdown: drained cleanly")
	case <-shutdownCtx.Done():
		logger.Warn("shutdown: drain budget exceeded, exiting with jobs in flight")
	}
	return nil
}

// checkRules refuses rules the metrics ring can never read data for.
// The ring reads an unknown family or label as no data, which the SLO
// engine and the brownout controller count as healthy, so such a rule
// would stay silent forever. Call it once every family is registered.
func checkRules(reg *obs.Registry, sloRules []slo.Rule, brownout *slo.Rule) error {
	snap := reg.Collect(nil, time.Now())
	for _, rule := range sloRules {
		if err := rule.Check(snap); err != nil {
			return fmt.Errorf("bad -slo-rule: %w", err)
		}
	}
	if brownout != nil {
		if err := brownout.Check(snap); err != nil {
			return fmt.Errorf("bad -brownout-rule: %w", err)
		}
	}
	return nil
}
