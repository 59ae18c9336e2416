package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BlockLanes caps the replication-block width used for draw_order v2
// variants: each task advances up to this many replications ("lanes")
// together through one structure-of-arrays block group, where a v1
// task advances one. The width is a scheduling/memory choice, not
// part of the v2 contract — every lane draws only from its own rng
// stream, so any partition of a variant's replications into blocks
// replays bit-identically (pinned by the chunk-invariance tests in
// internal/core). 32 lanes keeps a block's
// SoA state (O(lanes·m) plus one shared engine) small enough to stay
// cache-resident for the paper's option counts while amortizing
// per-step scheduling and engine-reuse overhead across many lanes.
// RunSweep narrows a run's blocks to ⌈v2 lanes in the run ÷ workers⌉
// lanes when that is fewer, so every worker gets a block: a solo
// 32-lane variant on two workers runs as two 16-lane blocks.
// Network families run width-1 blocks instead: having no block kernel,
// they keep one dynamics state per lane, so a wide block would
// multiply a run's memory by its width.
const BlockLanes = 32

// SweepVariant is one member of a parameter sweep: the axes that vary
// across runs of a shared (qualities, β, µ) family.
type SweepVariant struct {
	// N is the population size; 0 selects the infinite-population
	// process. Network families ignore it.
	N int
	// Engine selects the finite-population implementation.
	Engine core.EngineKind
	// Steps is the horizon T.
	Steps int
	// Replications averages this many independent runs (min 1).
	// Replication r seeds with rng.SeedFor(Seed, r), matching the serving
	// layer's per-spec execution, so sweep results are bit-identical to
	// running each variant on its own.
	Replications int
	// Seed is the variant's base seed.
	Seed uint64
	// DrawOrder selects the variant's draw-order contract. "" and "v1"
	// schedule one (variant, replication) task per replication, each
	// seeded rng.SeedFor(Seed, rep) — the frozen v1 order, bit-identical
	// to running the variant alone. "v2" schedules replication BLOCKS,
	// each lane seeded rng.StripeSeed(Seed, rep) with its own
	// independent stream, of one width for the whole run:
	// min(BlockLanes, ⌈v2 lanes in the run ÷ workers⌉), or one lane for
	// network families. Results differ from v1 by design (distinct
	// contract), but are invariant to block partitioning and worker
	// count. Anything else is ErrBadOptions.
	DrawOrder string
	// Trajectory, when non-nil, receives replication 0's row after
	// every step — t, the group reward, then the popularity vector
	// (lane 0 of the first block under v2) — and keeps rows by its own
	// downsampling. It needs 2+m columns and may be read while the
	// sweep runs.
	Trajectory *trace.Recorder
}

// SweepResult is the outcome of one variant. When Err is nil the
// scalar fields carry the same values — bit for bit — that running the
// variant alone (core.New per replication, merged in replication
// order) would produce.
type SweepResult struct {
	// BestQuality is η_1, the regret benchmark.
	BestQuality float64
	// AverageGroupReward is the mean over replications of the
	// time-averaged group reward.
	AverageGroupReward float64
	// Regret is the mean per-replication average regret.
	Regret float64
	// RegretStdDev is the sample standard deviation of the
	// per-replication regrets (0 with one replication).
	RegretStdDev float64
	// Popularity is the final popularity vector averaged elementwise
	// across replications.
	Popularity []float64
	// Err is the variant's terminal error (context cancellation or a
	// run failure); the other fields are zero when it is set.
	Err error
}

// SweepCounters are the sweep engine's own instrumentation: plain
// atomics (this package stays dependency-free) a caller can share
// across RunSweep calls and export however it likes — the serving
// layer reads them into its metrics registry at scrape time.
type SweepCounters struct {
	// Tasks counts scheduler tasks that actually began executing
	// (acquired the gate before ctx was done): one per replication for
	// v1 variants, one per replication BLOCK for v2 variants.
	Tasks atomic.Uint64
	// EngineReuses counts tasks served by Reset-ing the worker's
	// cached engine; EngineBuilds counts tasks that built a fresh one.
	// Their ratio is the variant-cache hit rate: low reuse on a
	// replication-heavy sweep means task ordering is defeating the
	// per-worker single-slot cache.
	EngineReuses atomic.Uint64
	EngineBuilds atomic.Uint64
}

// SweepOptions bounds the sweep's fan-out and carries its
// instrumentation: counters, task timings and span trace.
type SweepOptions struct {
	// Workers caps the number of concurrent tasks (replications, or
	// replication blocks for v2 variants) of this sweep; 0 selects
	// GOMAXPROCS. The calling goroutine is one of the workers, and the
	// count sets the v2 block width (see BlockLanes).
	Workers int
	// Gate, when non-nil, is a shared buffered channel acquired (send)
	// around each task's simulation work, bounding the AGGREGATE
	// parallelism of every sweep sharing it: N concurrent RunSweep
	// calls with one cap-C gate run at most C tasks at once, not N×C.
	// A task that finds every slot taken waits for one, or for ctx.
	Gate chan struct{}
	// Counters, when non-nil, receives the sweep's task fan-out and
	// engine-cache instrumentation.
	Counters *SweepCounters
	// OnTask, when non-nil, receives each successfully completed task's
	// timing: the variant index, the lane count the task advanced
	// together (1 for v1 replications), and the elapsed wall time of
	// the simulation work alone — gate waits are excluded, so the
	// sample reflects engine cost, not queueing. The serving
	// layer folds these into its per-(engine, draw_order) step-cost
	// estimates.
	OnTask func(variant, lanes int, elapsed time.Duration)
	// Trace, when non-nil, records one span per task — "replication"
	// for a v1 replication, "replication.block" for a v2 replication
	// block — nested under Span. Every span call is safe on a nil
	// Trace, so untraced sweeps pay only nil checks.
	Trace *span.Trace
	// Span is the parent span the task spans nest under (meaningful
	// only with a non-nil Trace).
	Span span.ID
}

// RunSweep executes every variant of a shared-family sweep with
// amortized setup: the family config (qualities, β, α, µ, and an
// optional network) is resolved once into a core.Template, and the
// (variant, replication) tasks fan out across the workers, each
// claiming the next task in order. proto carries the family fields;
// its N, Engine, and Seed are ignored.
//
// Per-variant failures, context cancellation included, are reported
// in the corresponding SweepResult.Err; RunSweep itself errors only on
// invalid options or an invalid family. Once ctx is done no task
// starts and every running task stops at its next step, so a canceled
// sweep returns within about one step of its costliest running task.
func RunSweep(ctx context.Context, proto core.Config, variants []SweepVariant, opt SweepOptions) ([]SweepResult, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("%w: empty sweep", ErrBadOptions)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Counters == nil {
		opt.Counters = new(SweepCounters)
	}
	tmpl, err := core.NewTemplate(proto)
	if err != nil {
		return nil, fmt.Errorf("experiment: sweep family: %w", err)
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	var lanes int64 // v2 replications in the run, counted past 2³¹
	for v := range variants {
		if variants[v].Steps <= 0 {
			return nil, fmt.Errorf("%w: variant %d steps=%d", ErrBadOptions, v, variants[v].Steps)
		}
		switch variants[v].DrawOrder {
		case "", "v1":
		case "v2":
			lanes += int64(max(variants[v].Replications, 1))
		default:
			return nil, fmt.Errorf("%w: variant %d draw order %q", ErrBadOptions, v, variants[v].DrawOrder)
		}
	}
	// One v2 block width for the run (see BlockLanes).
	width := int(min(BlockLanes, (lanes+int64(opt.Workers)-1)/int64(opt.Workers)))
	if proto.Network != nil {
		width = 1
	}
	r := &sweepRun{ctx: ctx, tmpl: tmpl, variants: variants, opt: opt,
		states: make([]variantState, len(variants)), bounds: make([]int64, len(variants)+1)}
	for v := range variants {
		st := &r.states[v]
		st.reps, st.width = max(variants[v].Replications, 1), 1
		if variants[v].DrawOrder == "v2" {
			st.width = width
		}
		r.bounds[v+1] = r.bounds[v] + int64(st.reps-1)/int64(st.width) + 1
	}
	tasks := r.bounds[len(variants)]
	// Grow the trace once for the task spans and the one span its
	// caller records after the sweep (the serving layer's cache.put or
	// cache.publish), instead of doubling as the spans arrive.
	opt.Trace.Reserve(int(min(tasks+1, math.MaxInt32)))
	// Running tasks read this flag before each step: a ctx.Err() there
	// would take the context's mutex, which all of a job's tasks share.
	stop := context.AfterFunc(ctx, func() { r.stopped.Store(true) })
	defer stop()

	claimAll(ctx, tasks, opt.Workers, func() func(int64) {
		var w sweepWorker
		return func(i int64) { r.run(&w, r.task(i)) }
	})

	out := make([]SweepResult, len(variants))
	for v := range r.states {
		if st := &r.states[v]; st.err == nil && st.merged < st.reps {
			// Claims stopped in task order once ctx was done: a serial
			// run meets ctx's error first, at the lowest unclaimed rep.
			st.err = ctx.Err()
		}
		out[v] = r.states[v].result()
	}
	return out, nil
}

// sweepRun is one RunSweep call's shared state.
type sweepRun struct {
	ctx      context.Context
	tmpl     *core.Template
	variants []SweepVariant
	opt      SweepOptions
	states   []variantState
	bounds   []int64     // variant v's tasks are [bounds[v], bounds[v+1]), counted past 2³¹
	stopped  atomic.Bool // set once ctx is done; running tasks stop at their next step
}

// task is one replication block of variant v, covering replications
// [rep, rep+lanes): a single v1 replication seeded rng.SeedFor(Seed,
// rep), or up to the variant's width of v2 lanes, lane rep+k seeded
// rng.StripeSeed(Seed, rep+k).
type task struct{ v, rep, lanes int }

// task returns the i-th task in task order: variants in order,
// replications ascending — the order that keeps a variant's
// replications contiguous for the worker engine caches. Tasks are
// generated, not materialized: the index maps to its variant by binary
// search over bounds, so a many-replication variant costs no task list.
func (r *sweepRun) task(i int64) task {
	v := sort.Search(len(r.states), func(v int) bool { return r.bounds[v+1] > i })
	st := &r.states[v]
	rep := int(i-r.bounds[v]) * st.width
	return task{v: v, rep: rep, lanes: min(st.width, st.reps-rep)}
}

// run executes one task on worker w; the task's replications fold into
// the variant's merge as they finish.
func (r *sweepRun) run(w *sweepWorker, tk task) {
	v, st := &r.variants[tk.v], &r.states[tk.v]
	if err := acquireGate(r.ctx, r.opt.Gate); err != nil {
		st.fail(tk.rep, err)
		return
	}
	r.opt.Counters.Tasks.Add(1)
	// Span + timing cover the simulation work only: the gate wait above
	// is queueing, not engine cost.
	v2 := v.DrawOrder == "v2"
	name := "replication"
	if v2 {
		name = "replication.block"
	}
	tr := r.opt.Trace
	sid := tr.Start(name, r.opt.Span)
	tr.SetAttr(sid, "replication", int64(tk.rep))
	if v2 {
		tr.SetAttr(sid, "lanes", int64(tk.lanes))
	}
	var t0 time.Time
	if r.opt.OnTask != nil {
		t0 = time.Now()
	}
	err := r.runBlock(w, v, st, tk.rep, tk.lanes)
	elapsed := time.Since(t0)
	tr.End(sid)
	if r.opt.Gate != nil {
		<-r.opt.Gate
	}
	if err != nil {
		st.fail(tk.rep, err)
		return
	}
	if r.opt.OnTask != nil {
		r.opt.OnTask(tk.v, tk.lanes, elapsed)
	}
}

// acquireGate takes a slot on the shared gate, abandoning the wait if
// the sweep's context dies first (a canceled sweep must not queue for
// simulation capacity it will never use).
func acquireGate(ctx context.Context, gate chan struct{}) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if gate == nil {
		return nil
	}
	select {
	case gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runBlock runs one task — lanes replications [lane0, lane0+lanes) of
// v — and folds each lane into the merge. Once ctx is done it stops at
// its next step.
func (r *sweepRun) runBlock(w *sweepWorker, v *SweepVariant, st *variantState, lane0, lanes int) error {
	g, err := w.block(r.tmpl, v, lane0, lanes, r.opt.Counters)
	if err != nil {
		return fmt.Errorf("experiment: sweep replication %d: %w", lane0, err)
	}
	rec, row := trajectory(v, lane0, g.Options())
	for t := 1; t <= v.Steps; t++ {
		if r.stopped.Load() {
			return r.ctx.Err()
		}
		if err := g.StepBlock(); err != nil {
			return fmt.Errorf("experiment: sweep step %d: %w", t, err)
		}
		if rec != nil {
			row[0], row[1] = float64(t), g.GroupReward(0)
			if err := rec.Record(g.AppendPopularity(0, row[:2])...); err != nil {
				return err
			}
		}
	}
	for k := 0; k < lanes; k++ {
		w.pop = g.AppendPopularity(k, w.pop[:0])
		st.add(lane0+k, g.CumulativeGroupReward(k)/float64(v.Steps), g.BestQuality(), w.pop)
	}
	return nil
}

// trajectory returns v's recorder and a row buffer (len 2, cap 2+m, so
// the popularity vector appends in place) when the task starting at
// replication rep records, and nil otherwise.
func trajectory(v *SweepVariant, rep, m int) (*trace.Recorder, []float64) {
	if rep != 0 || v.Trajectory == nil {
		return nil, nil
	}
	return v.Trajectory, make([]float64, 2, 2+m)
}

// sweepWorker is one worker's reusable state. Its single-slot engine
// cache lets consecutive tasks that share a shape — above all the
// replications of one variant, contiguous in task order — reuse one
// block's buffers via Reset instead of re-allocating O(N + m) state
// per task. One slot bounds retention (a sweep of many distinct
// large-N variants must not pin one engine per shape, the
// resource-exhaustion class the serving layer guards against) while
// capturing the dominant reuse. Reset replays a fresh block bit for
// bit (template environments are the stateless IID Bernoulli), so
// scheduling order cannot affect results.
type sweepWorker struct {
	key shapeKey
	b   *core.BlockGroup
	pop []float64 // popularity scratch handed to the merge
}

// shapeKey identifies the engine shape a cached block can be Reset
// into serving: variants differing only in seed, steps, or
// replications share buffers. Width is part of the key: Reset keeps a
// block's lane count, so a variant's tail block (narrower than the
// run's block width) never reuses the full-width block — at most one miss
// per variant. So is the draw order: a one-lane v1 block and a
// one-lane v2 block differ in engine and in lane seeding.
type shapeKey struct {
	n      int
	engine core.EngineKind
	lanes  int
	v2     bool
}

func shapeOf(v *SweepVariant, lanes int) shapeKey {
	v2 := v.DrawOrder == "v2"
	if v.N == 0 {
		return shapeKey{lanes: lanes, v2: v2} // the infinite process ignores the engine axis
	}
	return shapeKey{n: v.N, engine: v.Engine, lanes: lanes, v2: v2}
}

// block returns a block for v's shape at (Seed, lane0) in v's draw
// order, reusing the cached one when the worker just ran the same
// shape.
func (w *sweepWorker) block(tmpl *core.Template, v *SweepVariant, lane0, lanes int, ctrs *SweepCounters) (*core.BlockGroup, error) {
	key := shapeOf(v, lanes)
	if w.b != nil && w.key == key && w.b.Reset(v.Seed, lane0) == nil {
		ctrs.EngineReuses.Add(1)
		return w.b, nil
	}
	w.b = nil
	build := tmpl.NewBlockV1
	if key.v2 {
		build = tmpl.NewBlock
	}
	b, err := build(v.N, v.Engine, v.Seed, lane0, lanes)
	if err != nil {
		return nil, err
	}
	ctrs.EngineBuilds.Add(1)
	w.key, w.b = key, b
	return b, nil
}

// variantState is one variant's progress: the running merge of its
// finished replications.
type variantState struct {
	reps  int // replications to run (at least 1)
	width int // replications per task: 1 under v1, the block width under v2

	mu      sync.Mutex
	merged  int               // replications folded so far
	parked  map[int]parkedRep // finished ahead of the merge cursor
	bestQ   float64
	regrets stats.Summary
	reward  float64 // running mean of the time-averaged group reward
	popSum  []float64
	err     error
	errRep  int
}

// parkedRep is one replication's outcome waiting for its turn to merge.
type parkedRep struct {
	avg float64
	pop []float64
}

// add folds replication rep into the merge. Replications finish in any
// order across workers but fold strictly in replication order — the
// accumulation sequence of a serial per-variant run — so the merged
// scalars are bit-identical to running the variant alone, whatever the
// scheduling. One that finishes ahead of the cursor is parked (pop is
// the worker's scratch, so it is copied) until the gap fills; a serial
// run never parks, so it merges in O(m) memory however many
// replications it runs.
func (st *variantState) add(rep int, avg, bestQ float64, pop []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return
	}
	st.bestQ = bestQ
	if rep != st.merged {
		if st.parked == nil {
			st.parked = make(map[int]parkedRep)
		}
		st.parked[rep] = parkedRep{avg, append([]float64(nil), pop...)}
		return
	}
	for {
		st.regrets.Add(bestQ - avg)
		st.merged++
		st.reward += (avg - st.reward) / float64(st.merged)
		if st.popSum == nil {
			st.popSum = make([]float64, len(pop))
		}
		for j, p := range pop {
			st.popSum[j] += p
		}
		next, ok := st.parked[st.merged]
		if !ok {
			return
		}
		delete(st.parked, st.merged)
		avg, pop = next.avg, next.pop
	}
}

// fail records a task failure. The variant reports its lowest failed
// replication's error — the one a serial run would have met first.
func (st *variantState) fail(rep int, err error) {
	st.mu.Lock()
	if st.err == nil || rep < st.errRep {
		st.err, st.errRep = err, rep
	}
	st.parked = nil
	st.mu.Unlock()
}

// result is the variant's outcome once every task has finished.
func (st *variantState) result() SweepResult {
	if st.err != nil {
		return SweepResult{Err: st.err}
	}
	for j := range st.popSum {
		st.popSum[j] /= float64(st.merged)
	}
	return SweepResult{
		BestQuality:        st.bestQ,
		AverageGroupReward: st.reward,
		Regret:             st.regrets.Mean(),
		RegretStdDev:       st.regrets.StdDev(),
		Popularity:         st.popSum,
	}
}
