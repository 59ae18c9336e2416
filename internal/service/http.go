package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/service/loadctl"
)

// maxBodyBytes bounds request bodies; a Spec with MaxOptions qualities
// fits comfortably.
const maxBodyBytes = 1 << 20

// Server exposes the scheduler and cache over HTTP:
//
//	POST   /v1/simulate        synchronous, cached, single-flight
//	POST   /v1/sweep           synchronous batched sweep, per-variant cached
//	POST   /v1/jobs            asynchronous submission → 202 + id
//	GET    /v1/jobs/{id}       job status (+ report when done)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/trace completed job's trajectory as NDJSON
//	GET    /v1/jobs/{id}/spans job's span tree (JSON, once settled)
//	GET    /healthz            liveness (process is up)
//	GET    /readyz             readiness (503 once draining starts)
//	GET    /metrics            Prometheus text exposition
//	GET    /statsz             queue, cache, and traffic counters (JSON)
//	GET    /v1/slo             SLO rule states and windowed values (JSON)
//	GET    /debug/traces       recent span traces (?min_ms= filters)
//
// Every request is assigned a request ID (honoring a well-formed
// inbound X-Request-ID), echoed in the X-Request-ID response header
// and carried into submitted jobs and log lines. With WithTraces, the
// work-submitting routes additionally open a span trace keyed by that
// request ID and thread it through validation, admission, the queue,
// the run, and the cache write-back.
type Server struct {
	sched *Scheduler
	cache *Cache
	mux   *http.ServeMux
	start time.Time

	reg     *obs.Registry
	logger  *slog.Logger
	metrics *httpMetrics
	traces  *span.Recorder
	runtime *obs.RuntimeCollector
	slo     *slo.Engine
	history *tsdb.Ring
	loadctl *loadctl.Controller

	// draining flips once StartDrain is called; /readyz answers 503
	// from then on while /healthz keeps reporting liveness.
	draining atomic.Bool
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithLogger sets the structured logger for request and response
// events. The default discards.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// WithSLO attaches an SLO engine: GET /v1/slo serves its rule states
// and /statsz gains an "slo" section. Without this option /v1/slo
// answers 404 and /statsz omits the section.
func WithSLO(e *slo.Engine) ServerOption {
	return func(s *Server) { s.slo = e }
}

// WithHistory attaches the metrics-history ring. The overload paths
// use it to derive Retry-After from the measured drain rate (queue
// depth × mean run duration over the recent window) instead of a
// static hint. Without this option Retry-After falls back to 1s.
func WithHistory(ring *tsdb.Ring) ServerOption {
	return func(s *Server) { s.history = ring }
}

// WithLoadControl attaches the brownout controller so /statsz exposes
// its level, driving rule, and escalation count alongside the
// scheduler stats. The controller itself acts inside the scheduler
// (SchedulerConfig.LoadControl); this option only adds visibility.
func WithLoadControl(ctl *loadctl.Controller) ServerOption {
	return func(s *Server) { s.loadctl = ctl }
}

// WithTraces enables span tracing: the work-submitting routes open a
// root span per request, every serving layer underneath adds its own,
// and rec's ring backs /debug/traces and /v1/jobs/{id}/spans. Without
// this option the span plumbing stays dormant (nil-trace no-ops).
func WithTraces(rec *span.Recorder) ServerOption {
	return func(s *Server) { s.traces = rec }
}

// NewServer wires the routes and joins the HTTP, cache, and store
// metrics to the scheduler's registry, so the stack exposes the whole
// serving pipeline on one /metrics page.
func NewServer(sched *Scheduler, cache *Cache, opts ...ServerOption) *Server {
	s := &Server{
		sched: sched,
		cache: cache,
		mux:   http.NewServeMux(),
		start: time.Now(),
		reg:   sched.Registry(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.metrics = newHTTPMetrics(s.reg)
	registerCacheMetrics(s.reg, cache.Stats)
	s.runtime = obs.RegisterRuntime(s.reg)
	s.reg.GaugeFunc("reprod_uptime_seconds",
		"Seconds since the serving stack was wired.",
		func() float64 { return time.Since(s.start).Seconds() })

	s.mount("POST /v1/simulate", s.handleSimulate, true)
	s.mount("POST /v1/sweep", s.handleSweep, true)
	s.mount("POST /v1/jobs", s.handleSubmitJob, true)
	s.handle("GET /v1/jobs/{id}", s.handleGetJob)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.handle("GET /v1/jobs/{id}/spans", s.handleJobSpans)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.reg.Handler().ServeHTTP)
	s.handle("GET /statsz", s.handleStatsz)
	s.handle("GET /v1/slo", s.handleSLO)
	s.handle("GET /debug/traces", s.handleDebugTraces)
	return s
}

// handle mounts h at pattern without span tracing; read-only routes
// (status polls, health probes, scrape endpoints) would only churn the
// trace ring and drown the work traces /debug/traces exists to show.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mount(pattern, h, false)
}

// mount installs h at pattern behind the observability middleware:
// request-ID assignment, in-flight accounting, and per-route
// status-class counts and latency. Route children are pre-resolved
// here, once, so the per-request cost is one gauge add/dec, one
// counter increment, and one histogram observe.
//
// With traced set (and a recorder configured), the middleware also
// opens the request's root span — named after the route, keyed by the
// request ID — and carries it in the context for the layers below.
// The middleware's reference keeps the trace writable for the
// request's lifetime; the scheduler holds its own per-job reference,
// so an async job's spans stay open until the job settles.
func (s *Server) mount(pattern string, h http.HandlerFunc, traced bool) {
	rm := s.metrics.route(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := obs.WithRequestID(r.Context(), id)
		var tr *span.Trace
		if traced && s.traces != nil {
			tr = s.traces.Start(id, pattern, 0)
			ctx = span.NewContext(ctx, tr, span.Root)
		}
		r = r.WithContext(ctx)
		s.metrics.inflight.Inc()
		rec := statusRecorder{ResponseWriter: w}
		h(&rec, r)
		s.metrics.inflight.Dec()
		elapsed := time.Since(began)
		rm.observe(rec.status(), elapsed)
		if tr != nil {
			tr.SetAttr(span.Root, "status", int64(rec.status()))
			tr.End(span.Root)
			tr.Release()
		}
		s.logger.Debug("http request",
			"route", pattern, "status", rec.status(), "duration", elapsed,
			"request_id", id)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StartDrain flips the server into draining: /readyz starts answering
// 503 so load balancers stop routing new work here, while everything
// else — including /healthz liveness — keeps serving. Call it before
// http.Server.Shutdown so in-flight requests finish behind a readiness
// gate instead of racing closed listeners. Idempotent.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logger.Info("drain started: readiness now failing")
	}
}

// statusRecorder captures the response status for the middleware (an
// unset status means an implicit 200 on first write). It passes Flush
// through so the live trace stream keeps working behind it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.code == 0 {
		rec.code = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (rec *statusRecorder) status() int {
	if rec.code == 0 {
		return http.StatusOK
	}
	return rec.code
}

// errorBody is every non-2xx payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes the response body. An encode or write failure after
// the headers went out cannot be reported to the client, but it must
// not vanish either: it is counted (reprod_http_response_errors_total)
// and logged with the request ID so truncated responses are
// diagnosable.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.metrics.respErrs.Inc()
		s.logger.Warn("response write failed",
			"error", err, "status", status, "request_id", obs.RequestID(r.Context()))
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, r, status, errorBody{Error: err.Error()})
}

// decodeStrict decodes the request body into v, rejecting unknown
// fields and — because a body like `{"n":1,...}{"junk":1}` would
// otherwise silently decode its first document and drop the rest —
// trailing data after the first JSON document. It writes the 400 on
// failure.
func (s *Server) decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("decode spec: trailing data after JSON document"))
		return false
	}
	return true
}

// decodeSpec reads, validates, and hashes the request body.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (Spec, string, bool) {
	var spec Spec
	if !s.decodeStrict(w, r, &spec) {
		return Spec{}, "", false
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return Spec{}, "", false
	}
	hash, err := spec.Hash()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return Spec{}, "", false
	}
	return spec, hash, true
}

// decodeSweep reads, validates, and hashes a sweep request body,
// returning the sweep's hash and each variant's single-spec hash.
func (s *Server) decodeSweep(w http.ResponseWriter, r *http.Request) (SweepSpec, string, []string, bool) {
	var sweep SweepSpec
	if !s.decodeStrict(w, r, &sweep) {
		return SweepSpec{}, "", nil, false
	}
	if err := sweep.Validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return SweepSpec{}, "", nil, false
	}
	hash, err := sweep.Hash()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return SweepSpec{}, "", nil, false
	}
	hashes, err := sweep.variantHashes()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return SweepSpec{}, "", nil, false
	}
	return sweep, hash, hashes, true
}

// simulateResponse wraps the report for the synchronous endpoint.
type simulateResponse struct {
	Cached bool `json:"cached"`
	*Report
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	tr, root := span.FromContext(r.Context())
	vs := tr.Start("validate", root)
	spec, hash, ok := s.decodeSpec(w, r)
	tr.End(vs)
	if !ok {
		return
	}
	requestID := obs.RequestID(r.Context())
	report, cached, err := s.cache.Do(r.Context(), hash, func() (*Report, error) {
		as := tr.Start("admission", root)
		job, err := s.sched.SubmitSpanned(spec, hash, requestID, tr, root)
		tr.End(as)
		if err != nil {
			return nil, err
		}
		// Wait on the job's own lifetime, not the leader request's:
		// deduplicated followers and future cache hits still want the
		// result if this client hangs up.
		if err := job.Wait(context.Background()); err != nil {
			return nil, err
		}
		if jobErr := job.Err(); jobErr != nil {
			return nil, jobErr
		}
		return job.Report(), nil
	})
	if err != nil {
		s.writeSyncError(w, r, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, simulateResponse{Cached: cached, Report: report})
}

// retryAfterWindow is how far back retryAfterSeconds looks for the
// measured run-duration rate when deriving the drain-based hint.
const retryAfterWindow = 30 * time.Second

// retryAfterBounds clamp the Retry-After hint: at least 1s (the old
// static hint) and at most 30s so a transiently deep backlog never
// tells clients to go away for minutes.
const (
	minRetryAfter = 1
	maxRetryAfter = 30
)

// retryAfterSeconds derives the Retry-After hint for one rejection.
// A shed error carrying its own backlog estimate (cost admission
// knows the reserved wall-clock per worker) wins; otherwise the hint is
// the measured drain time — (queued + running) × mean run duration /
// workers — from the history ring. Both are clamped to [1s, 30s];
// without data the hint degrades to the old static 1.
func (s *Server) retryAfterSeconds(err error) int {
	clamp := func(seconds float64) int {
		return min(max(int(math.Ceil(seconds)), minRetryAfter), maxRetryAfter)
	}
	var shed *ErrShed
	if errors.As(err, &shed) && shed.RetryAfter > 0 {
		return clamp(shed.RetryAfter.Seconds())
	}
	if s.history != nil {
		sumRate, countRate, ok := s.history.HistogramRate(
			tsdb.Selector{Metric: "reprod_sched_run_duration_seconds"}, retryAfterWindow)
		if ok && countRate > 0 && sumRate > 0 {
			st := s.sched.Stats()
			if backlog := st.Queued + st.Running; backlog > 0 {
				meanRun := sumRate / countRate
				return clamp(float64(backlog) * meanRun / float64(max(st.Workers, 1)))
			}
		}
	}
	return minRetryAfter
}

// writeSyncError maps a submission or synchronous execution error onto
// its status code (shared by /v1/simulate, /v1/sweep and /v1/jobs).
func (s *Server) writeSyncError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(err)))
		s.writeError(w, r, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrJobTimeout):
		s.writeError(w, r, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Client went away; status code is moot but keep the log shape.
		s.writeError(w, r, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBadSpec):
		s.writeError(w, r, http.StatusBadRequest, err)
	default:
		s.writeError(w, r, http.StatusInternalServerError, err)
	}
}

// sweepVariantResult is one variant's slot in the sweep response.
type sweepVariantResult struct {
	// Cached reports the variant was answered from the result cache
	// instead of simulated in this sweep's batch.
	Cached bool `json:"cached"`
	*Report
}

// sweepResponse is the single response of POST /v1/sweep.
type sweepResponse struct {
	SweepHash      string               `json:"sweep_hash"`
	Variants       int                  `json:"variants"`
	CachedVariants int                  `json:"cached_variants"`
	Results        []sweepVariantResult `json:"results"`
}

// handleSweep runs a batched sweep synchronously. Every variant rides
// the single-spec cache and single-flight machinery (a variant and
// the equivalent /v1/simulate spec share one key): stored hits are
// answered directly, variants another request is already computing
// are joined, and only the variants this request leads are admitted —
// as one job whose work charge is the sum of theirs — and executed as
// one vectorized batch. Led results fill the cache and release every
// concurrent joiner, so identical concurrent sweeps (or a simulate
// racing a sweep that covers its spec) simulate exactly once.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tr, root := span.FromContext(r.Context())
	vs := tr.Start("validate", root)
	sweep, sweepHash, hashes, ok := s.decodeSweep(w, r)
	tr.SetAttr(vs, "variants", int64(len(sweep.Variants)))
	tr.End(vs)
	if !ok {
		return
	}

	results := make([]sweepVariantResult, len(sweep.Variants))
	residual := SweepSpec{Family: sweep.Family}
	var residualIdx []int
	var residualHashes []string
	var publishers []func(*Report, error)
	type joined struct {
		i    int
		wait func(context.Context) (*Report, error)
	}
	var joins []joined
	cachedCount := 0
	acq := tr.Start("cache.acquire", root)
	for i := range sweep.Variants {
		report, publish, wait := s.cache.Acquire(hashes[i])
		switch {
		case report != nil:
			results[i] = sweepVariantResult{Cached: true, Report: report}
			cachedCount++
		case wait != nil:
			joins = append(joins, joined{i, wait})
			cachedCount++
		default:
			residual.Variants = append(residual.Variants, sweep.Variants[i])
			residualIdx = append(residualIdx, i)
			residualHashes = append(residualHashes, hashes[i])
			publishers = append(publishers, publish)
		}
	}
	tr.SetAttr(acq, "stored", int64(cachedCount))
	tr.SetAttr(acq, "led", int64(len(residualIdx)))
	tr.End(acq)
	// Led flights MUST be released on every exit; a leaked flight
	// would hang all of its joiners.
	published := false
	defer func() {
		if !published {
			for _, publish := range publishers {
				publish(nil, fmt.Errorf("service: sweep leader aborted"))
			}
		}
	}()
	fail := func(err error) {
		published = true
		for _, publish := range publishers {
			publish(nil, err)
		}
		s.writeSyncError(w, r, err)
	}

	if len(residualIdx) > 0 {
		as := tr.Start("admission", root)
		job, err := s.sched.SubmitSweepSpanned(residual, sweepHash, residualHashes,
			obs.RequestID(r.Context()), tr, root)
		tr.End(as)
		if err != nil {
			fail(err)
			return
		}
		// As on the sync simulate path, wait on the job's own lifetime:
		// the batch keeps running — and still fills the cache and
		// releases joiners — if this client hangs up.
		if err := job.Wait(context.Background()); err != nil {
			fail(err)
			return
		}
		if jobErr := job.Err(); jobErr != nil {
			fail(jobErr)
			return
		}
		published = true
		ps := tr.Start("cache.publish", root)
		for k, report := range job.Reports() {
			publishers[k](report, nil)
			results[residualIdx[k]] = sweepVariantResult{Cached: false, Report: report}
		}
		tr.SetAttr(ps, "variants", int64(len(residualIdx)))
		tr.End(ps)
	}
	// Collect joined variants after publishing our own leads: a sweep
	// naming one spec twice joins its own flight.
	for _, jn := range joins {
		report, err := jn.wait(r.Context())
		if err != nil {
			s.writeSyncError(w, r, err)
			return
		}
		results[jn.i] = sweepVariantResult{Cached: true, Report: report}
	}
	s.writeJSON(w, r, http.StatusOK, sweepResponse{
		SweepHash:      sweepHash,
		Variants:       len(sweep.Variants),
		CachedVariants: cachedCount,
		Results:        results,
	})
}

// jobResponse describes a job's externally visible state.
type jobResponse struct {
	ID       string    `json:"id"`
	SpecHash string    `json:"spec_hash"`
	Status   JobStatus `json:"status"`
	// RequestID is the trace ID of the request that submitted the job,
	// so async pollers can correlate the job with the submitter's logs.
	RequestID string `json:"request_id,omitempty"`
	// CancelRequested is set while a cancellation is pending: the job
	// was asked to stop but has not reached a terminal state yet.
	CancelRequested bool       `json:"cancel_requested,omitempty"`
	Created         time.Time  `json:"created"`
	Started         *time.Time `json:"started,omitempty"`
	Finished        *time.Time `json:"finished,omitempty"`
	Error           string     `json:"error,omitempty"`
	Report          *Report    `json:"report,omitempty"`
	// Reports carries a sweep job's per-variant results.
	Reports []*Report `json:"reports,omitempty"`
}

func jobView(job *Job) jobResponse {
	resp := jobResponse{
		ID:              job.ID(),
		SpecHash:        job.SpecHash(),
		Status:          job.Status(),
		RequestID:       job.RequestID(),
		CancelRequested: job.CancelRequested(),
		Report:          job.Report(),
		Reports:         job.Reports(),
	}
	created, started, finished := job.Times()
	resp.Created = created
	if !started.IsZero() {
		resp.Started = &started
	}
	if !finished.IsZero() {
		resp.Finished = &finished
	}
	if err := job.Err(); err != nil {
		resp.Error = err.Error()
	}
	return resp
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	tr, root := span.FromContext(r.Context())
	vs := tr.Start("validate", root)
	spec, hash, ok := s.decodeSpec(w, r)
	tr.End(vs)
	if !ok {
		return
	}
	as := tr.Start("admission", root)
	job, err := s.sched.SubmitSpanned(spec, hash, obs.RequestID(r.Context()), tr, root)
	tr.End(as)
	if err != nil {
		s.writeSyncError(w, r, err)
		return
	}
	s.writeJSON(w, r, http.StatusAccepted, jobView(job))
}

// lookupJob resolves {id}, writing 404 on unknown ids.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.lookupJob(w, r); ok {
		s.writeJSON(w, r, http.StatusOK, jobView(job))
	}
}

// cancelSettleBudget is how long DELETE /v1/jobs/{id} waits for the
// canceled job to reach its terminal state before answering with the
// pending cancel_requested view. Queued jobs settle synchronously
// (Cancel reaps them from the backlog); running jobs stop at their
// next step, well inside this budget on an unloaded machine.
const cancelSettleBudget = 500 * time.Millisecond

// cancelResponse is the DELETE /v1/jobs/{id} payload: the job view
// plus an explicit statement of whether this job ended up canceled.
// Without it, a DELETE that raced the job's completion is ambiguous —
// the client cannot tell "my cancel landed" from "the job finished
// first and here is its result".
type cancelResponse struct {
	// Canceled is true only when the job reached the canceled state.
	// A job that completed (or failed) before the cancel could land
	// answers canceled=false with its terminal result intact.
	Canceled bool `json:"canceled"`
	jobResponse
}

// handleCancelJob cancels the job and reports its post-cancel state —
// not the racy pre-cancel snapshot: the response is either terminal
// (usually "canceled"; "done"/"failed", with canceled=false and the
// terminal result, if the job beat the cancel) or carries
// cancel_requested while a running job drains.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	job.Cancel()
	settle, cancel := context.WithTimeout(r.Context(), cancelSettleBudget)
	defer cancel()
	_ = job.Wait(settle) // on timeout the view below says cancel_requested
	view := jobView(job)
	s.writeJSON(w, r, http.StatusOK, cancelResponse{
		Canceled:    view.Status == JobCanceled,
		jobResponse: view,
	})
}

// traceStreamPoll paces the live-trace stream's polls between row
// batches; job completion and client disconnect interrupt it.
const traceStreamPoll = 15 * time.Millisecond

// handleTrace serves a job's trajectory as NDJSON. A completed job's
// trace arrives in one write with X-Trace-Rows set; a queued or
// running job with trace_every > 0 is streamed incrementally — rows
// are flushed as the simulation records them, so a client tails the
// trajectory while the job is still running and the stream ends when
// the job does.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	rec := job.Trace()
	switch job.Status() {
	case JobDone:
		if rec == nil {
			s.writeError(w, r, http.StatusNotFound,
				fmt.Errorf("service: job %s recorded no trace; submit with trace_every > 0", job.ID()))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Trace-Rows", strconv.Itoa(rec.Len()))
		w.WriteHeader(http.StatusOK)
		_ = rec.WriteNDJSON(w) // mid-stream failure means the client left
		return
	case JobQueued, JobRunning:
	default:
		s.writeError(w, r, http.StatusConflict,
			fmt.Errorf("service: job %s is %s and has no trace", job.ID(), job.Status()))
		return
	}
	if rec == nil {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("service: job %s records no trace; submit with trace_every > 0", job.ID()))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	next := 0
	// drain writes every row recorded since the last call; a write
	// error means the client hung up.
	drain := func() bool {
		n, err := rec.WriteNDJSONFrom(w, next)
		next += n
		if err != nil {
			return false
		}
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		if !drain() {
			return
		}
		switch job.Status() {
		case JobDone, JobFailed, JobCanceled:
			// Rows recorded between the drain above and the terminal
			// transition are flushed by one final pass; after the
			// transition nothing records anymore.
			_ = drain()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-job.done:
			// Loop once more: drain the remainder, observe the
			// terminal state, and finish the stream.
		case <-time.After(traceStreamPoll):
		}
	}
}

// handleJobSpans serves a job's span tree. The tree is only coherent
// once the job has settled (the scheduler releases its trace
// reference on every terminal path), so an unsettled job answers 409
// and pollers retry after the job reaches a terminal state. Note the
// submitting request may still hold the trace open briefly after the
// job settles — the synchronous endpoints release it when the
// response is written.
func (s *Server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	t := job.SpanTrace()
	if t == nil {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("service: job %s recorded no spans; tracing is disabled", job.ID()))
		return
	}
	export := t.Export()
	if export == nil {
		s.writeError(w, r, http.StatusConflict,
			fmt.Errorf("service: job %s spans are still open; retry once the job settles", job.ID()))
		return
	}
	s.writeJSON(w, r, http.StatusOK, export)
}

// tracesResponse is the /debug/traces payload: the recorder's ring,
// newest first, after the min-duration filter.
type tracesResponse struct {
	// Started and Sealed count traces opened and completed over the
	// process lifetime — the ring only retains the most recent ones.
	Started uint64            `json:"started"`
	Sealed  uint64            `json:"sealed"`
	Traces  []*span.TraceJSON `json:"traces"`
}

// maxMinMS is the largest ?min_ms= that a time.Duration holds.
const maxMinMS = int64(math.MaxInt64 / time.Millisecond)

// handleDebugTraces dumps the recent completed traces as JSON.
// ?min_ms=N keeps only traces at least that long, which is how an
// operator asks "what were the slow requests lately" without grepping
// logs.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("service: tracing is disabled; start the server with a span recorder"))
		return
	}
	var minDur time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 || ms > maxMinMS {
			s.writeError(w, r, http.StatusBadRequest,
				fmt.Errorf("service: min_ms must be an integer from 0 to %d, got %q", maxMinMS, v))
			return
		}
		minDur = time.Duration(ms) * time.Millisecond
	}
	started, sealed := s.traces.Stats()
	resp := tracesResponse{Started: started, Sealed: sealed, Traces: []*span.TraceJSON{}}
	for _, t := range s.traces.Snapshot() {
		if t.Duration() < minDur {
			continue
		}
		if export := t.Export(); export != nil {
			resp.Traces = append(resp.Traces, export)
		}
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleHealthz is pure liveness: it answers 200 as long as the
// process can serve at all, draining or not, so orchestrators do not
// kill a server that is gracefully finishing its backlog.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzBody is the /readyz payload.
type readyzBody struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
}

// handleReadyz is readiness: 200 while the server accepts new work,
// 503 with draining=true once StartDrain has been called, so load
// balancers stop routing here ahead of the listener closing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, r, http.StatusServiceUnavailable, readyzBody{Status: "draining", Draining: true})
		return
	}
	s.writeJSON(w, r, http.StatusOK, readyzBody{Status: "ok"})
}

// statszResponse aggregates the operational counters. Runtime reads
// the same collector snapshot that backs the reprod_go_* gauges on
// /metrics, so the two endpoints cannot drift; SLO (present with
// WithSLO) is the same payload /v1/slo serves.
type statszResponse struct {
	// StartedAt and Now timestamp the process start and this snapshot,
	// so a captured /statsz is self-describing about when it was taken.
	StartedAt     time.Time        `json:"started_at"`
	Now           time.Time        `json:"now"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Scheduler     SchedulerStats   `json:"scheduler"`
	Cache         CacheStats       `json:"cache"`
	Runtime       obs.RuntimeStats `json:"runtime"`
	SLO           *slo.Status      `json:"slo,omitempty"`
	Brownout      *loadctl.Status  `json:"brownout,omitempty"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := statszResponse{
		StartedAt:     s.start.UTC(),
		Now:           now.UTC(),
		UptimeSeconds: now.Sub(s.start).Seconds(),
		Scheduler:     s.sched.Stats(),
		Cache:         s.cache.Stats(),
		Runtime:       s.runtime.Stats(),
	}
	if s.slo != nil {
		st := s.slo.Status(now)
		resp.SLO = &st
	}
	if s.loadctl != nil {
		st := s.loadctl.Status()
		resp.Brownout = &st
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleSLO serves the SLO engine's rule states — the machine-readable
// face of /debug/dash. 404 until the server is wired WithSLO.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("service: no SLO engine configured; start the server with SLO rules"))
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.slo.Status(time.Now()))
}
