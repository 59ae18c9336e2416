// Package repro is a production-quality Go reproduction of
// "A Distributed Learning Dynamics in Social Groups" (Celis, Krafft,
// Vishnoi; PODC 2017, arXiv:1705.03414).
//
// The library lives under internal/: start with internal/core for the
// public simulation API, internal/experiment for the per-claim benchmark
// harness (experiments E01–E14; its package comment indexes each one's
// paper claim and asserting test), and the cmd/ and examples/
// directories for runnable programs. bench_test.go in this directory
// hosts one benchmark per experiment plus the ablation benches for the
// design choices in that index (A01, A02) and the serving-path
// benchmarks for internal/service.
//
// The serving layer lives in internal/service: a JSON Spec that
// validates through core.Config.Validate — arithmetically, with
// per-request work and topology-edge bounds, never materializing a
// group or graph — and hashes deterministically to a cache key, a
// bounded job scheduler (one FIFO per priority class, which every
// worker takes from) with admission control, per-job cancellation,
// and a server-side job timeout, a result cache with
// single-flight deduplication over a pluggable storage backend, and
// net/http handlers (synchronous POST /v1/simulate, batched
// POST /v1/sweep, asynchronous POST /v1/jobs + GET /v1/jobs/{id},
// NDJSON trace streaming — incremental while the job is still
// running — /healthz liveness, /readyz readiness, /metrics, /statsz). Parameter sweeps — the paper's
// native workload — run batched: a SweepSpec names one shared
// (qualities, β, µ) family plus per-variant (n, engine, steps, seed)
// axes, is admitted as one job whose work charge is the summed
// per-variant cost, and executes through internal/experiment.RunSweep,
// which resolves the family once (core.Template) and fans
// (variant, replication) tasks across a bounded set of workers, the
// calling goroutine among them, each claiming the next task in order
// from one atomic cursor.
// RunSweep is the scheduler's only replication loop, and every job
// takes one run path into it: the job is marked running, passes the
// sched.run fault seam and makes one RunSweep call. A single spec is a
// sweep of one variant, bit-identical to running the spec by hand.
// Every job's tasks, solo or sweep, fan out through one gate shared by
// all jobs (-workers slots), so a solo job's replications, or
// its v2 lanes split into one block per worker, run on every free
// vCPU.
//
// Result storage lives in internal/store, tiered behind the
// service.Cache seam: store.Memory is the in-proc LRU, store.Disk a
// crash-safe append-only segment log (per-record CRC32, torn tails
// truncated on open, batched fsyncs, a byte budget enforced by
// segment-granularity compaction/eviction), and store.Tiered the
// combination — memory front, disk behind, read-through promotion,
// write-behind spill. cmd/reprod is the daemon binary; with
// -store-dir set it warm-starts from the segment log, answering
// previously computed specs "cached":true across restarts. Warm start
// reads each segment once, front to back, through one bounded buffer,
// and its boot line logs the open duration next to warm_keys. The
// disk index holds a 128-bit digest of each key (about 16 B) plus the
// record's location and no pointers, so it costs the GC nothing to
// scan; a read compares the record's full key, so a digest collision
// reads as a miss, never as another spec's report. The cache reads the
// store outside its lock, so one slow disk read does not hold up
// other lookups:
//
//	reprod -addr :8080 -workers 8 -queue 64 -cache 1024 \
//	  -store-dir /var/lib/reprod -store-max-bytes 1073741824
//	curl -s localhost:8080/v1/simulate -d \
//	  '{"n": 10000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 1000, "seed": 1}'
//	# → {"cached":false, ...}; repeat after a daemon restart:
//	# → {"cached":true, ...} — the same report, served from disk
//	curl -s localhost:8080/v1/sweep -d '{
//	  "family": {"qualities": [0.9, 0.5, 0.5], "beta": 0.7},
//	  "variants": [{"n": 1000, "steps": 1000, "seed": 1},
//	               {"n": 100000, "steps": 1000, "seed": 2}]}'
//
// # The simulation hot path
//
// Every saved recomputation bottoms out in an engine's Step loop, so
// the step is engineered to be allocation-free at steady state across
// all four engines (aggregate, agent, infinite, network). The
// sampler-object API in internal/dist carries it: MultinomialSampler
// validates its distribution family once and then SampleInto draws
// with no per-call allocation or re-validation; Alias.Rebuild
// reconstructs a Walker table in place, reusing every buffer; and
// BinomialUnchecked skips per-draw validation for parameters the
// engine validated at construction, while a Thinning also computes
// once what each stage-2 adoption draw, at the rule's fixed α or β,
// would otherwise derive per call. The innermost loops run as bulk
// draw kernels in internal/rng (AliasSampleInto, ThresholdCountInto)
// that keep the generator state in registers, branchless where the
// outcome is decided by a random draw. internal/experiment.RunSweep
// recycles whole engines across (variant, replication) tasks via
// core.BlockGroup.Reset instead of reallocating per run.
//
// # The draw-order contract (versioned)
//
// The RNG draw order is a compatibility surface: a spec must replay to
// a bit-identical Report forever, because cache keys, sweep
// bit-identity, and the persistent result store all assume it. It is
// versioned rather than frozen — a spec's optional "draw_order" field
// ("v1" default, "v2" opt-in) names which contract it replays under,
// and the version participates in the spec hash, so results computed
// under different versions never collide in the cache or the store.
//
// v1 (default, frozen): replication r of a spec with seed s runs on a
// generator seeded rng.SeedFor(s, r) = s + r·γ (experiment.SeedFor
// delegates to it), and each engine consumes the per-trajectory draw
// sequence documented in internal/rng and internal/population.
// experiment.RunSweep steps each v1 replication as a one-lane
// core.BlockGroup holding one v1 engine. Every v1 optimization to date
// consumes exactly the draw sequence of the code it replaced; the v1
// path is untouched by v2 and persisted v1 results replay forever.
//
// v2 (opt-in, replication-vectorized): replication lane k runs on a
// generator seeded rng.StripeSeed(s, k) — an independent stream per
// lane, numbered globally, so any partition of the lanes into blocks
// replays bit-identically (block width is scheduling, not contract).
// For the population engines v2 also changes the law's sampling
// granularity from agents to counts: per lane and step, the
// environment's m reward draws, then one stage-1 multinomial over the
// sampling distribution (conditional-binomial decomposition, ascending
// category order), then m stage-2 adoption binomials ascending —
// O(m) draws per step instead of O(N), equal in law to the per-agent
// walk by exchangeability (every individual follows the one adoption
// rule a spec names). Under v2 the agent and aggregate engines therefore
// produce identical draw sequences (one population.BlockEngine serves
// both). experiment.RunSweep executes v2 replications in blocks of up
// to experiment.BlockLanes lanes, narrowed so that every worker gets a
// block, through the StepBlock structure-of-arrays kernels (one lane
// per block for a topology, whose blocks keep one v1 dynamics state per
// lane).
//
// Choosing a version: v2 is the replication-heavy sweep contract —
// small-to-moderate m with many replications is where the counts-based
// law wins (the ≥2× BenchmarkSweepBlock pin); for wide-m, small-N
// agent specs the v1 per-agent walk remains the faster path, and v1 is
// always correct. The reprod_core_draw_order{version} gauge shows
// which versions have served traffic.
//
// Adding a v3 later is additive, never mutating: a new lane-seeding
// schedule (like StripeSeed) or kernel family, a new spec token
// admitted by service validation and folded into the hash, a new
// golden fixture table in golden_test.go (regenerated via
// GOLDEN_PRINT=1, per version), and cross-version durability tests
// proving old stores still replay. Existing version paths and their
// fixtures must stay byte-for-byte; any change that shifts a draw
// within a version is a break and must instead become a new version.
//
// Perf quickstart — the core step benchmarks and their pins (≥2×
// agent-engine and ≥1.5× aggregate-engine step throughput vs the
// pre-refit implementations; ≥2× v2-over-v1 on the replication-block
// sweep workload, asserted in-benchmark; allocation pins in
// TestCoreStepAllocs and TestBlockStepAllocs):
//
//	go test -run '^$' -bench 'BenchmarkCoreStep$' -benchtime 1x .
//	go test -run '^$' -bench 'BenchmarkCoreStepBlock|BenchmarkSweepBlock' .
//	go test -run 'TestCoreStepAllocs|TestBlockStepAllocs' .
//
// # Observability quickstart
//
// The serving stack is instrumented end to end by internal/obs, a
// dependency-free metrics subsystem (atomic counters, gauges,
// fixed-bucket histograms with lock-free allocation-free recording —
// Observe costs ~12ns, pinned by BenchmarkMetricsOverhead) exposed in
// Prometheus text format on GET /metrics. /statsz reads the same
// registry handles, so the JSON and Prometheus views cannot disagree.
// Every request gets a request ID (a well-formed inbound X-Request-ID
// is honored), echoed in the X-Request-ID response header and the job
// object's request_id, and threaded into every log/slog line the
// scheduler and HTTP layer emit — a latency outlier in a histogram is
// greppable to the exact request and job that produced it:
//
//	reprod -addr :8080 -log-level debug
//	curl -s -H 'X-Request-ID: probe-1' localhost:8080/v1/simulate -d \
//	  '{"n": 10000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 1000, "seed": 1}'
//	curl -s localhost:8080/metrics | grep reprod_sched_queue_wait
//	curl -s localhost:8080/readyz   # 200; 503 {"draining":true} during shutdown
//
// /healthz is pure liveness; /readyz is readiness and fails as soon as
// graceful drain begins (-drain-grace holds the listener open while
// load balancers notice). The metric catalog, all prefixed reprod_:
//
//	http_requests_total{route,code}        counter   per-route requests by status class
//	http_request_duration_seconds{route}   histogram per-route latency
//	http_requests_inflight                 gauge     requests being served now
//	http_response_errors_total             counter   response encode/write failures
//	sched_queue_wait_seconds{class}        histogram queue wait per priority class (the SLO signal)
//	sched_run_duration_seconds             histogram job run duration
//	sched_queue_depth{class}               gauge     live backlog per priority class
//	sched_running                          gauge     jobs executing now
//	sched_pending_cost_seconds             gauge     reserved predicted wall-clock of admitted work
//	sched_jobs_total{outcome,class}        counter   done | failed | canceled, per class
//	sched_job_timeouts_total               counter   jobs killed by the server limit
//	sched_overload_rejections_total{class,reason}
//	                                       counter   sheds: queue_full | cost | brownout
//	brownout_level                         gauge     load-shed level: 0 off … 3 shed all uncached
//	sched_sweep_jobs_total                 counter   executed sweep jobs
//	sched_solo_jobs_total                  counter   executed single-spec jobs
//	core_draw_order{version}               gauge     info: draw-order versions executed (v1|v2)
//	sweep_tasks_total                      counter   replication tasks begun, every job kind
//	sweep_engine_reuses_total              counter   tasks served by engine Reset
//	sweep_engine_builds_total              counter   tasks building a fresh engine
//	cache_requests_total{result}           counter   hit | miss | wait
//	store_hits_total{tier}                 counter   reads answered per tier
//	store_evictions_total{tier}            counter   entries dropped per tier
//	store_len{tier}                        gauge     live entries per tier
//	store_promotions_total                 counter   disk→memory promotions
//	store_spills_total                     counter   write-behind spills persisted
//	store_spill_errors_total               counter   failed spills
//	store_spill_queue_depth                gauge     write-behind backlog (saturation)
//	store_compactions_total                counter   segment GC passes
//	store_segments_dropped_total           counter   segments deleted by GC
//	store_read_errors_total                counter   CRC/IO read failures
//	store_disk_bytes                       gauge     segment bytes on disk
//	store_disk_segments                    gauge     segment file count
//	uptime_seconds                         gauge     seconds since wiring
//	slo_status{rule}                       gauge     SLO rule state: 0 ok | 1 warn | 2 breach
//	slo_breaches_total{rule}               counter   transitions into breach
//	engine_step_cost_ns{engine,draw_order} gauge     EWMA cost of one simulated step per lane
//	engine_step_cost_samples_total{engine,draw_order}
//	                                       counter   timed segments folded into the EWMA
//	engine_step_cost_last_sample_age_seconds{engine,draw_order}
//	                                       gauge     seconds since the EWMA last absorbed a sample
//	go_goroutines                          gauge     current goroutine count
//	go_heap_alloc_bytes                    gauge     live heap bytes
//	go_heap_sys_bytes                      gauge     heap bytes held from the OS
//	go_heap_objects                        gauge     live heap objects
//	go_next_gc_bytes                       gauge     next GC target heap size
//	go_gc_cycles_total                     counter   completed GC cycles
//	go_gc_pause_seconds                    histogram stop-the-world GC pauses
//	build_info{version,go_version}         gauge     info: always 1, labels carry the build
//
// The exposition format is strict-checked (obs.CheckExposition) in
// tests and by CI's metrics smoke step, which scrapes a live daemon
// and archives the page as the BENCH_metrics.json artifact.
// reprod_engine_step_cost_ns is fed by the sampled step-cost profiler
// (internal/obs.StepCostProfiler): every successful replication or
// replication block reports elapsed/(steps×lanes) into a per-(engine,
// draw_order) EWMA, the measured cost model the roadmap's cost-aware
// admission control needs. Because an EWMA lies by omission once
// traffic stops, the profiler also exports per-cell sample counts and
// the age of the newest sample, so consumers can tell a fresh estimate
// from a stale one.
//
// # SLO quickstart
//
// The daemon watches its own health. internal/obs/tsdb captures the
// whole registry into an in-memory snapshot ring every
// -obs-scrape-interval (default 1s), retaining the last -obs-history
// samples (default 300 — five minutes of 1s captures); windowed rates
// come from counter deltas and quantiles from interpolated histogram
// bucket deltas, exactly as a Prometheus server would derive them,
// but with zero external infrastructure. internal/obs/slo evaluates
// declarative rules against that ring on every capture:
//
//	reprod -addr :8080 -debug-addr 127.0.0.1:6060 \
//	  -slo-rule 'queue_wait_p99: p99(reprod_sched_queue_wait_seconds) < 250ms over 1m' \
//	  -slo-rule 'shed_rate: rate(reprod_sched_overload_rejections_total) < 1 over 1m budget 5%'
//	curl -s localhost:8080/v1/slo | jq .          # rule states, values, burn rates
//	open http://127.0.0.1:6060/debug/dash         # self-contained operator dashboard
//
// A rule is "name: fn(metric{label=value}) OP threshold over window
// [budget N%]" with fn one of pNN (histogram quantile), rate (counter
// per-second rate), or value (gauge); thresholds accept durations
// (250ms) or floats. Without -slo-rule the daemon evaluates a default
// set: queue-wait p99, overload-shed rate, and GC-pause p99. Each rule
// carries an error budget (default 1%): the engine tracks the
// violating-tick fraction over the rule's window (fast burn) and over
// 6× the window (slow burn), each normalized by the budget — burn > 1
// means the budget is being spent faster than it renews. State is ok,
// warn (recovered but fast burn still over budget), or breach
// (currently violating); transitions are logged through slog and
// exported as reprod_slo_status{rule} / reprod_slo_breaches_total{rule},
// so the SLO engine's own output is scrapable and alertable. GET
// /v1/slo serves the full status as JSON, /statsz embeds it as the slo
// section (alongside started_at/now/uptime_seconds), and GET
// /debug/dash on the debug listener renders rule badges plus SVG
// sparklines for the key serving signals — one self-contained HTML
// document with zero external assets, usable from a curl | browser on
// an air-gapped box.
//
// # Overload & degradation quickstart
//
// Under overload the daemon degrades in a stated order instead of
// collapsing: batch work is shed first, interactive work is protected,
// and every rejection tells the client when to come back. Three
// mechanisms compose:
//
// Calibrated admission. -max-cost is each worker's share of a
// wall-clock admission budget: a job is admitted only while the
// predicted cost of all admitted, unfinished work stays within
// -workers × -max-cost. A job's predicted cost is the step-cost
// profiler's measured ns/step/lane × steps × replications, summed over
// a sweep's variants; the budget sits on top of the static per-job
// work bound (service.MaxWork, a constant). The prediction is only
// trusted when the profiler cell has ≥3 samples and the newest is
// younger than -stale-cost-after; a cold or stale profiler reverts
// admission to the static bound (the regime change is logged once, not
// per request). Admitted jobs reserve their predicted cost
// (reprod_sched_pending_cost_seconds) and release it on completion, so
// the budget bounds queued wall-clock, not just queued count; a cost
// shed's Retry-After is the reserved cost divided by -workers.
//
// Priority classes. A spec's optional "priority" field is
// "interactive" (the /v1/simulate default) or "batch" (the /v1/sweep
// default). Every worker takes the oldest queued interactive job
// before any batch job, and every queue/outcome/shed metric carries
// the class label, so the contract — interactive survives overload at
// a higher success ratio — is measurable, not aspirational.
//
// Brownout control. -brownout-rule names an SLO rule (same DSL as
// -slo-rule; default: queue-wait p99 < 250ms over 30s) that an
// internal/service/loadctl hysteresis controller evaluates every
// scrape tick. Sustained violation escalates through level 1 (shed
// batch admissions), 2 (also tighten the interactive cost budget 4×),
// and 3 (shed everything uncached); sustained calm relaxes one level
// at a time. The level is the reprod_brownout_level gauge, the
// brownout section of /statsz, and a dashboard panel. Cache
// single-flight followers inherit a leader's brownout shed instead of
// retrying into the brownout.
//
// Every shed is a 429 whose Retry-After is derived from the measured
// drain rate (backlog × mean run duration / workers, from the metrics
// ring) or from the shed's own backlog estimate, clamped to [1s, 30s]:
//
//	reprod -addr :8080 -workers 8 -queue 64 \
//	  -max-cost 4m -stale-cost-after 5m \
//	  -brownout-rule 'brownout: p99(reprod_sched_queue_wait_seconds) < 250ms over 30s'
//	curl -s localhost:8080/v1/simulate -d \
//	  '{"n": 10000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 1000, "seed": 1, "priority": "batch"}'
//	# under overload: HTTP 429, Retry-After: <seconds>, body names the shed reason
//	curl -s localhost:8080/statsz | jq .brownout   # {level, rule, value, threshold, ...}
//
// The fault-injection seams in internal/faultinject (injected latency,
// errors, and stalls at the scheduler run and disk-read points —
// compiled in but inert unless a test activates them) power the chaos
// test (TestChaosOverloadShedsGracefully) that proves the contract:
// with injected disk stalls and a mixed-priority flood, ≥90% of sheds
// hit batch, interactive queue-wait p99 stays under the SLO, and the
// controller returns to level 0 within one slow SLO window of the
// flood ending — all asserted from the metrics ring.
// CI's overload smoke step (TestDaemonOverloadSmoke) replays the same
// contract over HTTP against a live daemon and archives the outcome as
// BENCH_overload.json.
//
// # Tracing quickstart
//
// Beyond metrics, every work-submitting request (POST /v1/simulate,
// /v1/sweep, /v1/jobs) is traced end to end by internal/obs/span — a
// dependency-free span recorder (Start+attr+End is allocation-free on
// a live trace with room for the span, pinned by BenchmarkSpanOverhead;
// untraced paths pay a nil-check only). The root span is keyed by the
// request ID; the layers below add validate, admission,
// cache.get/cache.put, queue.wait, and run spans, and every job's run
// nests one replication span per v1 replication or replication.block
// span per v2 block (single-spec and sweep jobs alike execute through
// experiment.RunSweep). A trace allocates in proportion to what it
// records: a span takes 40 B and an attribute 48 B, and the Trace
// holds room for four of each, so a cache hit's three spans (root,
// validate, cache.get) and two attributes cost one 512 B allocation,
// while a miss or a sweep grows the arrays by append (a
// single-replication simulate records 8 spans, an 8-replication v1
// simulate 15) or reserves them once (a 16-variant × 8-replication v1
// sweep's 135 spans and 136 attributes hold about 12 KB). A traced
// cache hit allocates at most 2 KiB and three allocations more than
// an untraced one, pinned by TestTracedCacheHitAllocs. The last
// -trace-ring completed traces back GET /debug/traces, any trace
// slower than -trace-slow is logged through slog, and a job's tree is
// served once it settles:
//
//	reprod -addr :8080 -trace-ring 256 -trace-slow 500ms -debug-addr 127.0.0.1:6060
//	id=$(curl -s localhost:8080/v1/jobs -d \
//	  '{"n": 10000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 1000, "seed": 1}' | jq -r .id)
//	curl -s localhost:8080/v1/jobs/$id/spans | jq .        # the span tree
//	curl -s 'localhost:8080/debug/traces?min_ms=100' | jq . # recent slow traces
//	go tool pprof localhost:6060/debug/pprof/profile        # CPU profile (separate listener)
//
// net/http/pprof is only ever mounted on -debug-addr, a separate
// listener: profiles expose process memory and can stall the runtime,
// so they must not share the client-facing serving port. Bind it to
// loopback or a firewalled interface.
package repro
