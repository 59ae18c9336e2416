package service

import (
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the single place the serving stack's metric names are
// wired. Every component records into handles resolved here once at
// construction (never a name lookup on a hot path), and /statsz reads
// back from the same handles, so there is exactly one source of truth
// per number no matter which endpoint exports it.
//
// Metric catalog (also documented in the repository doc.go):
//
//	reprod_http_requests_total{route,code}        counter   per-route requests by status class
//	reprod_http_request_duration_seconds{route}   histogram per-route latency
//	reprod_http_requests_inflight                 gauge     requests currently being served
//	reprod_http_response_errors_total             counter   response encode/write failures
//	reprod_sched_queue_wait_seconds{class}        histogram queue-wait per priority class (the SLO signal)
//	reprod_sched_run_duration_seconds             histogram job run duration
//	reprod_sched_queue_depth{class}               gauge     live backlog per priority class
//	reprod_sched_pending_cost_seconds             gauge     predicted wall-clock cost of admitted work
//	reprod_sched_running                          gauge     jobs executing now
//	reprod_sched_jobs_total{outcome,class}        counter   terminal jobs: done|failed|canceled, per class
//	reprod_sched_job_timeouts_total               counter   jobs killed by the server time limit
//	reprod_sched_overload_rejections_total{class,reason}
//	                                              counter   submissions shed by admission control,
//	                                              by class and reason: queue_full|cost|brownout
//	reprod_brownout_level                         gauge     brownout level 0..3 (internal/service/loadctl)
//	reprod_sched_sweep_jobs_total                 counter   executed sweep jobs
//	reprod_sched_solo_jobs_total                  counter   executed single-spec jobs
//	reprod_core_draw_order{version}               gauge     info: draw-order versions executed (v1|v2)
//	reprod_sweep_tasks_total                      counter   replication tasks begun, every job kind
//	reprod_sweep_engine_reuses_total              counter   tasks served by Reset-ing a cached engine
//	reprod_sweep_engine_builds_total              counter   tasks that built a fresh engine
//	reprod_cache_requests_total{result}           counter   cache outcomes: hit|miss|wait
//	reprod_store_hits_total{tier}                 counter   store reads answered per tier
//	reprod_store_evictions_total{tier}            counter   entries dropped per tier
//	reprod_store_len{tier}                        gauge     live entries per tier
//	reprod_store_promotions_total                 counter   disk hits promoted into memory
//	reprod_store_spills_total                     counter   write-behind spills persisted
//	reprod_store_spill_errors_total               counter   spills that failed to encode/append
//	reprod_store_spill_queue_depth                gauge     write-behind backlog awaiting disk
//	reprod_store_compactions_total                counter   segment GC passes rewriting live data
//	reprod_store_segments_dropped_total           counter   segments deleted by GC
//	reprod_store_read_errors_total                counter   disk reads failing CRC/IO, served as misses
//	reprod_store_disk_bytes                       gauge     bytes across all segment files
//	reprod_store_disk_segments                    gauge     segment file count
//	reprod_uptime_seconds                         gauge     seconds since the server was wired
//	reprod_slo_status{rule}                       gauge     SLO rule state: 0 ok | 1 warn | 2 breach
//	reprod_slo_breaches_total{rule}               counter   transitions into breach
//	reprod_engine_step_cost_ns{engine,draw_order} gauge     EWMA ns per step per lane, from real runs
//	reprod_engine_step_cost_samples_total{engine,draw_order}
//	                                              counter   timed segments folded into the EWMA
//	reprod_engine_step_cost_last_sample_age_seconds{engine,draw_order}
//	                                              gauge     seconds since the EWMA last took a sample
//	reprod_go_goroutines                          gauge     current goroutine count
//	reprod_go_heap_alloc_bytes                    gauge     bytes of live heap objects
//	reprod_go_heap_sys_bytes                      gauge     heap bytes obtained from the OS
//	reprod_go_heap_objects                        gauge     live heap object count
//	reprod_go_next_gc_bytes                       gauge     heap target for the next GC cycle
//	reprod_go_gc_cycles_total                     counter   completed GC cycles
//	reprod_go_gc_pause_seconds                    histogram stop-the-world GC pause durations
//	reprod_build_info{version,go_version}         gauge     constant 1; build identity in the labels

// schedMetrics are the scheduler's registered handles.
type schedMetrics struct {
	reg *obs.Registry

	// Per-class handles are indexed by classIndex (0 interactive,
	// 1 batch).
	queueWait [numClasses]*obs.Histogram
	depth     [numClasses]*obs.Gauge
	runDur    *obs.Histogram
	running   *obs.Gauge

	jobsDone     [numClasses]*obs.Counter
	jobsFailed   [numClasses]*obs.Counter
	jobsCanceled [numClasses]*obs.Counter
	timeouts     *obs.Counter
	// shed is indexed [classIndex][shedReason]. The tsdb selector with
	// no labels sums every child, so the default overload-rate SLO rule
	// reads the family unchanged.
	shed [numClasses][numShedReasons]*obs.Counter

	sweeps   *obs.Counter
	soloJobs *obs.Counter

	drawOrderV1 *obs.Gauge
	drawOrderV2 *obs.Gauge

	// stepCost folds real run timings into per-(engine, draw_order)
	// ns/step estimates — the measured signal the calibrated-admission
	// control loop consumes. Fed by RunSweep's OnTask.
	stepCost *obs.StepCostProfiler
}

// newSchedMetrics registers the scheduler families and pre-resolves
// every per-class child, so the dequeue and settle paths never touch
// the registry.
func newSchedMetrics(reg *obs.Registry, sweepCtrs *experiment.SweepCounters, pending *atomic.Int64) *schedMetrics {
	m := &schedMetrics{reg: reg}
	lat := obs.LatencyBuckets()
	m.runDur = reg.Histogram("reprod_sched_run_duration_seconds", "Job execution wall-clock time.", lat)
	reg.GaugeFunc("reprod_sched_pending_cost_seconds",
		"Predicted wall-clock cost of admitted-but-unfinished work (0 while the cost model is cold).",
		func() float64 { return time.Duration(pending.Load()).Seconds() })
	m.running = reg.Gauge("reprod_sched_running", "Jobs executing right now.")

	qw := reg.HistogramVec("reprod_sched_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up, per priority class.", lat, "class")
	dp := reg.GaugeVec("reprod_sched_queue_depth",
		"Jobs queued and not yet picked up, per priority class.", "class")
	jobs := reg.CounterVec("reprod_sched_jobs_total",
		"Jobs reaching a terminal state, by outcome and priority class.", "outcome", "class")
	shed := reg.CounterVec("reprod_sched_overload_rejections_total",
		"Submissions rejected by admission control, by priority class and reason (queue_full: job queue at capacity; cost: predicted wall-clock cost over the pool budget; brownout: shed by the load controller).",
		"class", "reason")
	for ci, class := range classNames {
		m.queueWait[ci] = qw.With(class)
		m.depth[ci] = dp.With(class)
		m.jobsDone[ci] = jobs.With("done", class)
		m.jobsFailed[ci] = jobs.With("failed", class)
		m.jobsCanceled[ci] = jobs.With("canceled", class)
		for ri, reason := range shedReasonNames {
			m.shed[ci][ri] = shed.With(class, reason)
		}
	}
	m.timeouts = reg.Counter("reprod_sched_job_timeouts_total",
		"Jobs killed by the server-side job timeout (also counted failed).")

	m.sweeps = reg.Counter("reprod_sched_sweep_jobs_total", "Executed sweep jobs.")
	m.soloJobs = reg.Counter("reprod_sched_solo_jobs_total", "Executed single-spec jobs.")

	// Info gauge: which draw-order contract versions this process has
	// executed (1 once a job of that version ran). Dashboards use it to
	// see a v2 rollout land without diffing spec hashes.
	do := reg.GaugeVec("reprod_core_draw_order",
		"Draw-order contract versions executed by this process (1 = at least one job ran).",
		"version")
	m.drawOrderV1 = do.With("v1")
	m.drawOrderV2 = do.With("v2")

	// The sweep engine — which executes every job, single-spec and
	// sweep alike — keeps its own atomics (internal/experiment stays
	// dependency-free); export them as scrape-time reads.
	reg.CounterFunc("reprod_sweep_tasks_total",
		"Replication tasks (v1 replications, v2 blocks) begun by the sweep engine, for every job kind.",
		func() float64 { return float64(sweepCtrs.Tasks.Load()) })
	reg.CounterFunc("reprod_sweep_engine_reuses_total",
		"Sweep tasks served by Reset-ing a worker's cached engine.",
		func() float64 { return float64(sweepCtrs.EngineReuses.Load()) })
	reg.CounterFunc("reprod_sweep_engine_builds_total",
		"Sweep tasks that had to build a fresh engine.",
		func() float64 { return float64(sweepCtrs.EngineBuilds.Load()) })

	m.stepCost = obs.NewStepCostProfiler(reg)
	return m
}

// markDrawOrder flags the contract version a starting job runs under
// ("" marks v1, the default).
func (m *schedMetrics) markDrawOrder(version string) {
	if version == "v2" {
		m.drawOrderV2.Set(1)
		return
	}
	m.drawOrderV1.Set(1)
}

// registerCacheMetrics exports the result cache's counters and its
// store backend's tier counters into reg. The cache and store tiers
// keep their own counters (the cache's hit/miss/wait classification
// lives under its single-flight mutex, and internal/store stays
// dependency-free), so every family here is function-backed: stats()
// snapshots the authoritative numbers at scrape time, and /statsz and
// /metrics can never disagree.
func registerCacheMetrics(reg *obs.Registry, stats func() CacheStats) {
	tiers := func() store.Stats { return stats().Tiers }
	req := reg.CounterVec("reprod_cache_requests_total",
		"Result-cache lookups by outcome: hit (stored), miss (led a computation), wait (joined a flight).",
		"result")
	req.WithFunc(func() float64 { return float64(stats().Hits) }, "hit")
	req.WithFunc(func() float64 { return float64(stats().Misses) }, "miss")
	req.WithFunc(func() float64 { return float64(stats().Waits) }, "wait")

	hits := reg.CounterVec("reprod_store_hits_total", "Store reads answered, per tier.", "tier")
	hits.WithFunc(func() float64 { return float64(tiers().MemHits) }, "memory")
	hits.WithFunc(func() float64 { return float64(tiers().DiskHits) }, "disk")
	ev := reg.CounterVec("reprod_store_evictions_total", "Entries dropped, per tier.", "tier")
	ev.WithFunc(func() float64 { return float64(tiers().MemEvictions) }, "memory")
	ev.WithFunc(func() float64 { return float64(tiers().DiskEvictions) }, "disk")
	ln := reg.GaugeVec("reprod_store_len", "Live entries, per tier.", "tier")
	ln.WithFunc(func() float64 { return float64(tiers().MemLen) }, "memory")
	ln.WithFunc(func() float64 { return float64(tiers().DiskLen) }, "disk")
	reg.CounterFunc("reprod_store_promotions_total",
		"Disk hits promoted into the memory tier.",
		func() float64 { return float64(tiers().Promotions) })
	reg.CounterFunc("reprod_store_spills_total",
		"Write-behind spills persisted to the disk tier.",
		func() float64 { return float64(tiers().Spills) })
	reg.CounterFunc("reprod_store_spill_errors_total",
		"Spills that failed to encode or append (value still in memory).",
		func() float64 { return float64(tiers().SpillErrors) })
	reg.GaugeFunc("reprod_store_spill_queue_depth",
		"Write-behind backlog: puts accepted but not yet on disk.",
		func() float64 { return float64(tiers().SpillQueueDepth) })
	reg.CounterFunc("reprod_store_compactions_total",
		"Segment GC passes that rewrote live records.",
		func() float64 { return float64(tiers().Compactions) })
	reg.CounterFunc("reprod_store_segments_dropped_total",
		"Segments deleted by GC (compacted or evicted wholesale).",
		func() float64 { return float64(tiers().SegmentsDropped) })
	reg.CounterFunc("reprod_store_read_errors_total",
		"Disk reads failing verification, served as misses.",
		func() float64 { return float64(tiers().ReadErrors) })
	reg.GaugeFunc("reprod_store_disk_bytes",
		"Total size of all segment files on disk.",
		func() float64 { return float64(tiers().DiskBytes) })
	reg.GaugeFunc("reprod_store_disk_segments",
		"Number of segment files on disk.",
		func() float64 { return float64(tiers().DiskSegments) })
}

// httpMetrics are the HTTP middleware's registered handles. Children
// are pre-resolved per route at wiring time; the per-request path does
// one gauge add, one histogram observe, and one counter increment.
type httpMetrics struct {
	requests *obs.CounterVec
	duration *obs.HistogramVec
	inflight *obs.Gauge
	respErrs *obs.Counter
}

// routeMetrics are one route's pre-resolved children: the latency
// histogram and one counter per status class (1xx..5xx at index
// class-1).
type routeMetrics struct {
	duration *obs.Histogram
	byClass  [5]*obs.Counter
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		requests: reg.CounterVec("reprod_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "code"),
		duration: reg.HistogramVec("reprod_http_request_duration_seconds",
			"HTTP request latency, by route.", obs.LatencyBuckets(), "route"),
		inflight: reg.Gauge("reprod_http_requests_inflight",
			"HTTP requests currently being served."),
		respErrs: reg.Counter("reprod_http_response_errors_total",
			"Responses whose JSON encode or write failed after headers were sent."),
	}
}

// route pre-resolves the children for one route pattern.
func (m *httpMetrics) route(pattern string) *routeMetrics {
	r := &routeMetrics{duration: m.duration.With(pattern)}
	for i, class := range [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		r.byClass[i] = m.requests.With(pattern, class)
	}
	return r
}

// observe records one finished request.
func (r *routeMetrics) observe(status int, elapsed time.Duration) {
	class := status/100 - 1
	if class < 0 || class > 4 {
		class = 4
	}
	r.byClass[class].Inc()
	r.duration.Observe(elapsed.Seconds())
}
