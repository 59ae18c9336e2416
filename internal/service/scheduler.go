package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/service/loadctl"
	"repro/internal/trace"
)

var (
	// ErrOverloaded reports that admission control rejected a job
	// because the job queue is full.
	ErrOverloaded = errors.New("service: overloaded: job queue full")
	// ErrClosed reports a submission to a closed scheduler.
	ErrClosed = errors.New("service: scheduler closed")
	// ErrUnknownJob reports a lookup of an unknown or evicted job.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobTimeout reports a job canceled by the scheduler's
	// JobTimeout. Work admitted within the MaxWork budget can still be
	// slow on a loaded machine; the timeout bounds wall-clock time so
	// no job — in particular an uncancelable synchronous single-flight
	// leader — can occupy a worker until process restart.
	ErrJobTimeout = errors.New("service: job exceeded server time limit")
)

// The scheduler's priority classes. Interactive work dequeues ahead
// of any queued batch work and is the last to be shed under brownout;
// batch work sheds first.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

// numClasses sizes the per-class queues and metric arrays; classNames
// indexes the vocabulary by classIndex.
const numClasses = 2

var classNames = [numClasses]string{ClassInteractive, ClassBatch}

// classIndex maps a class name onto its metric-array index (unknown
// or empty classes count as interactive, the default).
func classIndex(class string) int {
	if class == ClassBatch {
		return 1
	}
	return 0
}

// Admission shed reasons, indexing shedReasonNames and the second
// axis of schedMetrics.shed.
const (
	shedQueueFull = iota // job queue at capacity
	shedCost             // predicted wall-clock cost over the pool budget
	shedBrownout         // rejected by the brownout load controller
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{"queue_full", "cost", "brownout"}

// ErrShed is the typed admission rejection: which class was shed, at
// what brownout level, and why. It unwraps to ErrOverloaded, so every
// existing errors.Is(err, ErrOverloaded) check — including the cache
// single-flight's follower handling — keeps working, while callers
// that care (batch clients backing off differently from interactive
// ones) can errors.As the detail out.
type ErrShed struct {
	// Class is the shed job's priority class.
	Class string
	// Level is the brownout level at the moment of rejection (0 when
	// the shed was not brownout-driven).
	Level int
	// Reason is one of "queue_full", "cost", or "brownout".
	Reason string
	// RetryAfter is the scheduler's drain-time hint: for cost sheds,
	// the predicted pending wall-clock backlog divided by Workers. Zero
	// means no hint (the HTTP layer derives one from the measured drain
	// rate).
	RetryAfter time.Duration
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("service: overloaded: %s job shed (%s, brownout level %d)",
		e.Class, e.Reason, e.Level)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold for every shed.
func (e *ErrShed) Unwrap() error { return ErrOverloaded }

// Leveler supplies the brownout level admission control consults —
// implemented by *loadctl.Controller. The scheduler's reading of the
// levels:
//
//	>= loadctl.LevelShedBatch           reject batch-class submissions
//	>= loadctl.LevelTightenInteractive  divide the cost budget by interactiveTighten
//	>= loadctl.LevelShedAll             reject every submission
type Leveler interface {
	Level() int
}

// interactiveTighten is the cost-budget divisor applied at
// loadctl.LevelTightenInteractive and above.
const interactiveTighten = 4

// Report is the JSON result of one completed simulation job. With
// Replications=1 its Regret and Popularity equal a direct
// core.New(...).Run(...) with the same seed; with more replications
// they are means across independent seeds.
type Report struct {
	// SpecHash is the canonical cache key of the spec that produced
	// this report.
	SpecHash string `json:"spec_hash"`
	// Steps is the horizon of each replication.
	Steps int `json:"steps"`
	// Replications is the number of independent runs averaged.
	Replications int `json:"replications"`
	// BestQuality is η_1, the benchmark for regret.
	BestQuality float64 `json:"best_quality"`
	// AverageGroupReward is the mean over replications of the
	// time-averaged group reward.
	AverageGroupReward float64 `json:"average_group_reward"`
	// Regret is the mean per-replication average regret.
	Regret float64 `json:"regret"`
	// RegretStdDev is the sample standard deviation of the
	// per-replication regrets (0 when Replications == 1).
	RegretStdDev float64 `json:"regret_stddev"`
	// Popularity is the final popularity vector, averaged elementwise
	// across replications.
	Popularity []float64 `json:"popularity"`
}

// JobStatus is the lifecycle state of a job.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// Job is one scheduled simulation: a single spec, or a whole sweep
// (sweep != nil) executed as one admission unit.
type Job struct {
	id   string
	spec Spec
	hash string

	// sweep and variantHashes are set for sweep jobs; spec is unused
	// then.
	sweep         *SweepSpec
	variantHashes []string

	// trace is the trajectory recorder of a spec with trace_every > 0,
	// created at submission so GET /v1/jobs/{id}/trace can stream its
	// rows while the job runs; nil otherwise. Set once, before the job
	// is visible to anyone else.
	trace *trace.Recorder

	// requestID is the submitting request's trace ID (may be empty);
	// it is echoed in the job view and every log line about this job,
	// so a latency outlier is greppable back to the exact request.
	requestID string

	// class is the job's priority class (ClassInteractive or
	// ClassBatch), resolved from the spec at submission.
	class string
	// costNs is the wall-clock cost the calibrated admission charged
	// against the pool budget (0 when the cost model was cold, stale,
	// or disabled); released in retire.
	costNs int64

	// strace is the submitting request's span trace (nil for untraced
	// submissions; every span call below is nil-safe). The scheduler
	// holds one reference on it from enqueue until the job's terminal
	// path calls endSpans, so the trace cannot seal while the job still
	// writes spans. parentSpan is the span submissions nest under;
	// queueSpan and runSpan are the job's own lifecycle spans.
	strace     *span.Trace
	parentSpan span.ID
	queueSpan  span.ID
	runSpan    span.ID

	sched *Scheduler

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	status   JobStatus
	reports  []*Report // one per variant; a single-spec job has one
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// SpecHash returns the canonical hash of the job's spec (or sweep).
func (j *Job) SpecHash() string { return j.hash }

// RequestID returns the trace ID of the request that submitted this
// job ("" for untraced submissions).
func (j *Job) RequestID() string { return j.requestID }

// Status returns the current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Report returns the result (nil until the job is done; nil for sweep
// jobs, which report per variant via Reports).
func (j *Job) Report() *Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sweep != nil || len(j.reports) == 0 {
		return nil
	}
	return j.reports[0]
}

// Reports returns a sweep job's per-variant results, in variant order
// (nil until done, and nil for single-spec jobs).
func (j *Job) Reports() []*Report {
	if j.sweep == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reports
}

// Trace returns the job's trajectory recorder: nil unless the spec set
// trace_every (sweep jobs never record one). Replication 0 fills it
// while the job runs; it is safe to read concurrently, and complete
// once the job is done.
func (j *Job) Trace() *trace.Recorder { return j.trace }

// SpanTrace returns the span trace the job records into (nil for
// untraced submissions). The trace seals — and becomes exportable —
// only after the job settles AND the submitting request finishes.
func (j *Job) SpanTrace() *span.Trace {
	return j.strace
}

// endSpans closes the job's run span and drops the job's hold on its
// trace. Each job reaches exactly one terminal path (settle, reaped
// while queued, or canceled at dequeue), and every path calls this
// exactly once — the matching Retain happened in
// enqueue, so an untraced or never-enqueued job never gets here with
// an unbalanced count.
func (j *Job) endSpans() {
	j.strace.End(j.runSpan)
	j.strace.Release()
}

// Err returns the terminal error (nil unless the job failed or was
// canceled).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Times returns the lifecycle timestamps; started and finished are
// zero until the corresponding transition happened.
func (j *Job) Times() (created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created, j.started, j.finished
}

// CancelRequested reports that Cancel was called but the job has not
// reached a terminal state yet (it stops at its next step).
func (j *Job) CancelRequested() bool {
	if j.ctx.Err() == nil {
		return false
	}
	switch j.Status() {
	case JobDone, JobFailed, JobCanceled:
		return false
	}
	return true
}

// Cancel asks the job to stop. A still-queued job is removed from the
// queue immediately — freeing its slot for admission control rather
// than letting canceled work occupy it until a worker reaches it — and
// finishes as canceled; a running job stops at its next step.
func (j *Job) Cancel() {
	j.cancel()
	if j.sched != nil {
		j.sched.reapQueued(j)
	}
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finish records the terminal state exactly once; reports is nil
// unless the job is done.
func (j *Job) finish(status JobStatus, reports []*Report, err error) {
	j.mu.Lock()
	j.status = status
	j.reports = reports
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// SchedulerConfig sizes the worker pool.
type SchedulerConfig struct {
	// Workers is the scheduler's one parallelism setting. It starts
	// that many worker goroutines, each taking the oldest queued
	// interactive job, else the oldest queued batch job, and running it
	// to completion before taking the next. It also sizes the gate that
	// bounds simulation tasks running at once across all jobs: every
	// running job, solo or sweep, fans its tasks (v1 replications, v2
	// replication blocks) out to Workers goroutines, its own worker
	// among them, and a task computes only while it holds a gate slot.
	// Total simulation parallelism is therefore Workers, and a job that
	// finds every slot taken waits for the next free one while its
	// JobTimeout runs.
	Workers int
	// QueueDepth is each worker's share of the queue: at most
	// Workers × QueueDepth not-yet-running jobs wait, and a full queue
	// rejects submissions with ErrOverloaded.
	QueueDepth int
	// RetainJobs bounds how many finished jobs stay queryable before
	// the oldest are evicted (default 1024).
	RetainJobs int
	// JobTimeout, when positive, bounds each job's running time: the
	// job context gets this deadline when a worker picks the job up,
	// and a job that hits it finishes as JobFailed with ErrJobTimeout.
	// Zero means no server-side time limit.
	JobTimeout time.Duration
	// MaxCost, when positive, is each worker's share of the wall-clock
	// admission budget: a submission whose predicted cost (step-cost
	// profiler estimate × steps × replications, summed per variant for
	// sweeps) would push the pending predicted work past
	// Workers × MaxCost is rejected with an ErrShed carrying the
	// pending work divided by Workers as its Retry-After hint.
	// Prediction needs a warm profiler — cold or stale estimates fall
	// back to the static MaxWork bound Validate already enforced. Zero
	// disables cost admission.
	MaxCost time.Duration
	// StaleCostAfter bounds how old the profiler's newest sample for
	// an (engine, draw_order) pair may be before its estimate is
	// considered stale and cost admission falls back to the static
	// path (default 5m).
	StaleCostAfter time.Duration
	// LoadControl, when set, supplies the brownout level admission
	// consults on every submission (see internal/service/loadctl and
	// the Leveler docs for the level semantics). Nil means level 0.
	LoadControl Leveler
	// Metrics is the registry the scheduler records into. Nil gets a
	// fresh private registry, so embedded schedulers (tests, library
	// use) stay fully instrumented without any wiring.
	Metrics *obs.Registry
	// Logger receives structured job-lifecycle logs. Nil discards.
	Logger *slog.Logger
}

// SchedulerStats is a point-in-time snapshot for /statsz.
type SchedulerStats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Canceled   uint64 `json:"canceled"`
	// Sweeps counts executed sweep jobs (POST /v1/sweep admissions).
	Sweeps uint64 `json:"sweeps"`
	// SoloJobs counts executed single-spec jobs.
	SoloJobs uint64 `json:"solo_jobs"`
	// Shed counts admission rejections, all classes and reasons
	// combined.
	Shed uint64 `json:"shed"`
	// PendingCostSeconds is the predicted wall-clock cost of admitted
	// but unfinished work (0 while the cost model is cold or disabled).
	PendingCostSeconds float64 `json:"pending_cost_seconds"`
	// Classes breaks queue depth, terminal outcomes, and sheds down by
	// priority class.
	Classes map[string]ClassStats `json:"classes"`
}

// ClassStats is one priority class's slice of the pool state.
type ClassStats struct {
	Queued   int    `json:"queued"`
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed"`
	Canceled uint64 `json:"canceled"`
	Shed     uint64 `json:"shed"`
}

// Scheduler is a bounded worker pool executing simulation jobs. Jobs
// wait in one FIFO per priority class; every worker takes the oldest
// interactive job, else the oldest batch job.
type Scheduler struct {
	cfg SchedulerConfig
	// sweepGate bounds aggregate task parallelism across every running
	// job, solo or sweep, to Workers (see SchedulerConfig.Workers).
	sweepGate chan struct{}

	// mu guards admission, the queues, the job table and closed; ready
	// wakes a worker when a job is queued, and every worker on Close.
	mu     sync.Mutex
	ready  sync.Cond
	closed bool
	queues [numClasses][]*Job // not-yet-running jobs, oldest first, by classIndex
	jobs   map[string]*Job
	doneQ  []string // finished job ids, oldest first, for retention

	wg     sync.WaitGroup
	nextID atomic.Uint64

	// pendingNs is the predicted wall-clock cost of admitted but
	// unfinished work in nanoseconds: charged at enqueue under mu
	// against the Workers × MaxCost budget, released in retire so every
	// terminal path settles the account exactly once.
	pendingNs atomic.Int64
	// costs converts a job's work units into predicted wall-clock cost
	// via the step-cost profiler (nil-safe; see costmodel.go).
	costs *costModel

	// metrics holds every scheduler counter, gauge, and histogram
	// handle, pre-resolved at construction. Stats() derives /statsz
	// from these same handles, so the two export paths cannot drift.
	metrics *schedMetrics
	logger  *slog.Logger
	// sweepCtrs is handed to every experiment.RunSweep call so the
	// sweep engine's fan-out and engine-cache behavior land in the
	// registry without internal/experiment importing obs.
	sweepCtrs experiment.SweepCounters
}

// NewScheduler validates the config and starts the workers.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("%w: workers=%d", ErrBadSpec, cfg.Workers)
	}
	if cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("%w: queue depth=%d", ErrBadSpec, cfg.QueueDepth)
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.RetainJobs < 0 {
		return nil, fmt.Errorf("%w: retain jobs=%d", ErrBadSpec, cfg.RetainJobs)
	}
	if cfg.JobTimeout < 0 {
		return nil, fmt.Errorf("%w: job timeout=%s", ErrBadSpec, cfg.JobTimeout)
	}
	if cfg.MaxCost < 0 {
		return nil, fmt.Errorf("%w: max cost=%s", ErrBadSpec, cfg.MaxCost)
	}
	if cfg.StaleCostAfter < 0 {
		return nil, fmt.Errorf("%w: stale cost after=%s", ErrBadSpec, cfg.StaleCostAfter)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Scheduler{
		cfg:       cfg,
		sweepGate: make(chan struct{}, cfg.Workers),
		jobs:      make(map[string]*Job),
		logger:    logger,
	}
	s.ready.L = &s.mu
	s.metrics = newSchedMetrics(reg, &s.sweepCtrs, &s.pendingNs)
	s.costs = newCostModel(s.metrics.stepCost, cfg.MaxCost, cfg.StaleCostAfter, logger)
	s.wg.Add(cfg.Workers)
	for range cfg.Workers {
		go s.worker()
	}
	return s, nil
}

// Submit validates spec, assigns it a job id, and enqueues it. It
// returns ErrOverloaded without blocking when admission control sheds
// the job, and ErrClosed after Close.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	return s.SubmitValidated(spec, hash)
}

// SubmitValidated enqueues a spec the caller has already run through
// Validate and Hash (the HTTP layer does both while decoding), so the
// hot serving path does not validate — and in particular does not
// build a throwaway core.Group — twice per request.
func (s *Scheduler) SubmitValidated(spec Spec, hash string) (*Job, error) {
	return s.SubmitSpanned(spec, hash, "", nil, span.None)
}

// SubmitSpanned is SubmitValidated carrying the submitting request:
// its trace ID, which the job echoes in its API view and every log
// line about the job (so a slow or failed job is greppable back to
// the exact request that caused it), and its span trace, under whose
// parent span the job records queue-wait and run spans, holding the
// trace open until it settles. tr may be nil (untraced submission).
func (s *Scheduler) SubmitSpanned(spec Spec, hash, requestID string, tr *span.Trace, parent span.ID) (*Job, error) {
	job := s.newJob(hash)
	job.spec = spec
	job.class = spec.class()
	job.requestID = requestID
	job.strace = tr
	job.parentSpan = parent
	if spec.TraceEvery > 0 {
		cols := append([]string{"t", "group_reward"}, trace.VectorColumns("q", len(spec.Qualities))...)
		rec, err := trace.NewRecorder(spec.TraceEvery, cols...)
		if err != nil {
			job.cancel()
			return nil, err
		}
		job.trace = rec
	}
	return s.enqueue(job)
}

// SubmitSweep enqueues a validated sweep as one job: one queue slot,
// one admission decision (Validate already bounded the summed
// per-variant work), executed as one vectorized batch. variantHashes
// are the single-spec cache keys of the sweep's variants, in order.
func (s *Scheduler) SubmitSweep(sw SweepSpec, hash string, variantHashes []string) (*Job, error) {
	return s.SubmitSweepSpanned(sw, hash, variantHashes, "", nil, span.None)
}

// SubmitSweepSpanned is SubmitSweep carrying the submitting request's
// trace ID and span trace (see SubmitSpanned).
func (s *Scheduler) SubmitSweepSpanned(sw SweepSpec, hash string, variantHashes []string, requestID string, tr *span.Trace, parent span.ID) (*Job, error) {
	job := s.newJob(hash)
	job.sweep = &sw
	job.class = sw.class()
	job.variantHashes = variantHashes
	job.requestID = requestID
	job.strace = tr
	job.parentSpan = parent
	return s.enqueue(job)
}

// Registry returns the metrics registry this scheduler records into
// (the configured one, or the private default), so callers stacking
// more components on the same scheduler — the HTTP server, the result
// cache — can join their metrics to it.
func (s *Scheduler) Registry() *obs.Registry { return s.metrics.reg }

// newJob allocates a job shell for the given canonical hash.
func (s *Scheduler) newJob(hash string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		id:    fmt.Sprintf("j%08d-%s", s.nextID.Add(1), hash[:min(8, len(hash))]),
		hash:  hash,
		sched: s,
		// Span IDs must start at None, not the zero ID (the root span):
		// endSpans runs on every terminal path, including ones where
		// start() never armed a run span.
		parentSpan: span.None,
		queueSpan:  span.None,
		runSpan:    span.None,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		status:     JobQueued,
		created:    time.Now(),
	}
}

// enqueue admits the job and appends it to its class's queue. The
// brownout level is read before taking s.mu (LoadControl is supplied by
// the caller); the decision runs under s.mu, in three layers: the
// brownout level (class-selective shedding), the calibrated wall-clock
// cost budget (when the profiler is warm), and the queue capacity. A
// shed job never enters the job table.
func (s *Scheduler) enqueue(job *Job) (*Job, error) {
	lvl := 0
	if s.cfg.LoadControl != nil {
		lvl = s.cfg.LoadControl.Level()
	}
	ci := classIndex(job.class)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		job.cancel()
		return nil, ErrClosed
	}
	if reason, retryAfter := s.admit(job, lvl); reason >= 0 {
		s.mu.Unlock()
		job.cancel()
		return nil, s.shed(job, reason, lvl, retryAfter)
	}
	s.jobs[job.id] = job
	// Retain the request's trace and open the queue-wait span before
	// the job becomes visible to a worker, which may settle it as soon
	// as s.mu is released: its endSpans must find the reference held.
	job.strace.Retain()
	job.queueSpan = job.strace.Start("queue.wait", job.parentSpan)
	s.queues[ci] = append(s.queues[ci], job)
	s.metrics.depth[ci].Inc()
	s.ready.Signal()
	s.mu.Unlock()
	return job, nil
}

// admit decides one submission under s.mu. It returns the shed reason
// and Retry-After hint, or reason -1 after charging the admitted job's
// predicted cost to pendingNs. predict returns 0 — falling back to the
// static MaxWork bound Validate enforced — while the profiler is cold,
// stale, or cost admission is off.
func (s *Scheduler) admit(job *Job, lvl int) (reason int, retryAfter time.Duration) {
	if lvl >= loadctl.LevelShedAll || (lvl >= loadctl.LevelShedBatch && job.class == ClassBatch) {
		return shedBrownout, 0
	}
	workers := int64(s.cfg.Workers)
	predicted := int64(s.costs.predict(job))
	if predicted > 0 {
		budget := workers * int64(s.cfg.MaxCost)
		if lvl >= loadctl.LevelTightenInteractive {
			budget /= interactiveTighten
		}
		if pending := s.pendingNs.Load(); pending+predicted > budget {
			return shedCost, time.Duration(pending / workers)
		}
	}
	if len(s.queues[0])+len(s.queues[1]) >= s.cfg.Workers*s.cfg.QueueDepth {
		return shedQueueFull, 0
	}
	job.costNs = predicted
	s.pendingNs.Add(predicted)
	return -1, 0
}

// shed records one admission rejection — per-class/per-reason counter
// plus the structured log line — and returns the typed error.
func (s *Scheduler) shed(job *Job, reason, level int, retryAfter time.Duration) error {
	s.metrics.shed[classIndex(job.class)][reason].Inc()
	s.logger.Warn("job shed",
		"class", job.class, "reason", shedReasonNames[reason],
		"brownout_level", level, "spec_hash", job.hash, "request_id", job.requestID)
	return &ErrShed{
		Class:      job.class,
		Level:      level,
		Reason:     shedReasonNames[reason],
		RetryAfter: retryAfter,
	}
}

// reapQueued removes a canceled job from its queue, if it is still
// there, and finishes it immediately. Idempotent and safe against the
// workers: removal here and a worker's take are both under s.mu, so
// exactly one side finishes the job.
func (s *Scheduler) reapQueued(job *Job) {
	ci := classIndex(job.class)
	s.mu.Lock()
	i := slices.Index(s.queues[ci], job)
	if i >= 0 {
		s.queues[ci] = slices.Delete(s.queues[ci], i, i+1)
		s.metrics.depth[ci].Dec()
	}
	s.mu.Unlock()
	if i < 0 {
		return
	}
	s.metrics.jobsCanceled[ci].Inc()
	job.strace.End(job.queueSpan)
	job.endSpans()
	job.finish(JobCanceled, nil, context.Cause(job.ctx))
	s.logger.Info("job canceled while queued",
		"job", job.id, "spec_hash", job.hash, "request_id", job.requestID)
	s.retire(job)
}

// Job looks up a job by id.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return job, nil
}

// Stats snapshots the pool state. Every number is read from the same
// registry handles GET /metrics exports, so /statsz is a JSON view of
// the Prometheus data, not a parallel set of counters.
func (s *Scheduler) Stats() SchedulerStats {
	m := s.metrics
	st := SchedulerStats{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     int(m.depth[0].Value() + m.depth[1].Value()),
		Running:    int(m.running.Value()),
		Sweeps:     m.sweeps.Value(),
		SoloJobs:   m.soloJobs.Value(),
		Classes:    make(map[string]ClassStats, numClasses),
	}
	for ci, class := range classNames {
		cs := ClassStats{
			Queued:   int(m.depth[ci].Value()),
			Done:     m.jobsDone[ci].Value(),
			Failed:   m.jobsFailed[ci].Value(),
			Canceled: m.jobsCanceled[ci].Value(),
		}
		for ri := range shedReasonNames {
			cs.Shed += m.shed[ci][ri].Value()
		}
		st.Classes[class] = cs
		st.Completed += cs.Done
		st.Failed += cs.Failed
		st.Canceled += cs.Canceled
		st.Shed += cs.Shed
	}
	st.PendingCostSeconds = time.Duration(s.pendingNs.Load()).Seconds()
	return st
}

// Close stops admissions and drains: every already-queued job still
// runs to completion before Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker runs queued jobs one at a time until Close has drained the
// queues.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for job := s.next(); job != nil; job = s.next() {
		s.run(job)
	}
}

// next blocks until a job is queued and takes the oldest interactive
// job, else the oldest batch job. It returns nil once the scheduler is
// closed and both queues are empty.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for ci, q := range s.queues {
			if len(q) > 0 {
				job := q[0]
				q[0] = nil
				s.queues[ci] = q[1:]
				s.metrics.depth[ci].Dec()
				return job
			}
		}
		if s.closed {
			return nil
		}
		s.ready.Wait()
	}
}

// dequeue transitions a taken job out of the pending state; it returns
// false after finishing the job when it was canceled while queued.
// Queue wait is observed only for jobs that go on to run — a canceled
// job's time in queue is not a latency sample.
func (s *Scheduler) dequeue(job *Job) bool {
	ci := classIndex(job.class)
	job.strace.End(job.queueSpan)
	if job.ctx.Err() != nil {
		s.metrics.jobsCanceled[ci].Inc()
		job.endSpans()
		job.finish(JobCanceled, nil, context.Cause(job.ctx))
		s.retire(job)
		return false
	}
	s.metrics.queueWait[ci].Observe(time.Since(job.created).Seconds())
	return true
}

// start marks the job running and returns its execution context,
// bounded by JobTimeout when configured. The timeout clock starts when
// the job starts running, not when it was queued, so a deep backlog
// cannot expire jobs before they run.
func (s *Scheduler) start(job *Job) (context.Context, context.CancelFunc) {
	job.mu.Lock()
	job.status = JobRunning
	job.started = time.Now()
	job.mu.Unlock()
	job.runSpan = job.strace.Start("run", job.parentSpan)
	if job.runSpan != span.None {
		if job.sweep != nil {
			job.strace.SetAttrStr(job.runSpan, "engine", "sweep")
			job.strace.SetAttr(job.runSpan, "variants", int64(len(job.sweep.Variants)))
			do := job.sweep.Family.DrawOrder
			if do == "" {
				do = "v1"
			}
			job.strace.SetAttrStr(job.runSpan, "draw_order", do)
		} else {
			job.strace.SetAttrStr(job.runSpan, "engine", job.spec.engineName())
			job.strace.SetAttrStr(job.runSpan, "draw_order", job.spec.drawOrderVersion())
		}
	}
	if s.cfg.JobTimeout > 0 {
		return context.WithTimeoutCause(job.ctx, s.cfg.JobTimeout, ErrJobTimeout)
	}
	return job.ctx, func() {}
}

// rewriteTimeout maps a deadline error whose cause is the timeout this
// scheduler installed onto ErrJobTimeout: a deadline arriving via
// job.ctx from some other source must not be misreported as the
// server limit.
func (s *Scheduler) rewriteTimeout(ctx context.Context, err error) error {
	if errors.Is(err, context.DeadlineExceeded) && errors.Is(context.Cause(ctx), ErrJobTimeout) {
		return fmt.Errorf("%w (%s)", ErrJobTimeout, s.cfg.JobTimeout)
	}
	return err
}

// settle records a started job's terminal state from its execution
// error, observing its run duration and emitting its terminal log
// line. reports holds the job's results, one per variant, and is read
// only when err is nil.
func (s *Scheduler) settle(job *Job, reports []*Report, err error) {
	_, started, _ := job.Times()
	dur := time.Since(started)
	s.metrics.runDur.Observe(dur.Seconds())
	job.endSpans()
	ci := classIndex(job.class)
	switch {
	case err == nil:
		s.metrics.jobsDone[ci].Inc()
		job.finish(JobDone, reports, nil)
		s.logger.Info("job done",
			"job", job.id, "spec_hash", job.hash, "variants", len(reports),
			"run_duration", dur, "request_id", job.requestID)
	case errors.Is(err, context.Canceled):
		s.metrics.jobsCanceled[ci].Inc()
		job.finish(JobCanceled, nil, err)
		s.logger.Info("job canceled",
			"job", job.id, "spec_hash", job.hash, "request_id", job.requestID)
	default:
		if errors.Is(err, ErrJobTimeout) {
			s.metrics.timeouts.Inc()
		}
		s.metrics.jobsFailed[ci].Inc()
		job.finish(JobFailed, nil, err)
		s.logger.Warn("job failed",
			"job", job.id, "spec_hash", job.hash, "error", err,
			"request_id", job.requestID)
	}
	s.retire(job)
}

// run executes one job through a single experiment.RunSweep call. The
// job is marked running, opens its run span, starts its JobTimeout
// clock and passes the sched.run fault seam before its first step.
// The job kind decides only the variant list and the family config: a
// single spec is one variant, a sweep one per member. Either way the
// job's tasks fan out through the shared gate to this worker and up to
// Workers−1 goroutines; a one-task job starts none.
func (s *Scheduler) run(job *Job) {
	if !s.dequeue(job) {
		return
	}
	ctx, cancel := s.start(job)
	defer cancel()
	// Test-only fault seam: an armed "sched.run" fault fails or delays
	// the job here, after it is marked running but before any work.
	if err := faultinject.Do(ctx, "sched.run"); err != nil {
		s.settle(job, nil, s.rewriteTimeout(ctx, err))
		return
	}
	specs, hashes := []Spec{job.spec}, []string{job.hash}
	opt := experiment.SweepOptions{Workers: s.cfg.Workers, Gate: s.sweepGate, Counters: &s.sweepCtrs,
		Trace: job.strace, Span: job.runSpan}
	var proto core.Config
	var err error
	if sw := job.sweep; sw != nil {
		s.metrics.sweeps.Inc()
		specs, hashes = make([]Spec, len(sw.Variants)), job.variantHashes
		for i := range specs {
			specs[i] = sw.variantSpec(i)
		}
		proto = sw.familyConfig()
	} else {
		s.metrics.soloJobs.Inc()
		// Cannot fail for a validated spec; a failure fails the job.
		proto, err = job.spec.jobConfig()
	}
	opt.OnTask = func(v, lanes int, elapsed time.Duration) {
		s.observeStepCost(&specs[v], lanes, elapsed)
	}
	variants := make([]experiment.SweepVariant, len(specs))
	for i := range specs {
		variants[i] = specs[i].sweepVariant()
	}
	variants[0].Trajectory = job.trace // nil for sweep jobs
	s.metrics.markDrawOrder(specs[0].DrawOrder)
	s.metrics.running.Inc()
	var results []experiment.SweepResult
	if err == nil {
		results, err = experiment.RunSweep(ctx, proto, variants, opt)
	}
	s.metrics.running.Dec()
	reports := make([]*Report, len(results))
	for i, res := range results {
		if res.Err != nil {
			err = res.Err
			break
		}
		reports[i] = variantReport(hashes[i], &specs[i], res)
	}
	s.settle(job, reports, s.rewriteTimeout(ctx, err))
}

// observeStepCost feeds one finished task's timing to the step-cost
// profiler.
func (s *Scheduler) observeStepCost(spec *Spec, lanes int, elapsed time.Duration) {
	s.metrics.stepCost.Observe(spec.engineName(), spec.drawOrderVersion(), spec.Steps, lanes, elapsed.Nanoseconds())
}

// variantReport shapes one sweep-driver result as the serving report
// for the given spec. The driver's replication-order merge makes the
// values bit-identical to running the spec's replications one by one.
func variantReport(hash string, spec *Spec, res experiment.SweepResult) *Report {
	return &Report{
		SpecHash:           hash,
		Steps:              spec.Steps,
		Replications:       spec.Replications,
		BestQuality:        res.BestQuality,
		AverageGroupReward: res.AverageGroupReward,
		Regret:             res.Regret,
		RegretStdDev:       res.RegretStdDev,
		Popularity:         res.Popularity,
	}
}

// retire releases the job's cost reservation and enforces the
// finished-job retention bound.
func (s *Scheduler) retire(job *Job) {
	s.pendingNs.Add(-job.costNs)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneQ = append(s.doneQ, job.id)
	for len(s.doneQ) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneQ[0])
		s.doneQ = s.doneQ[1:]
	}
}
