package experiment

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/trace"
)

// serialVariant reproduces the unbatched per-variant execution: one
// core.New per replication, merged in replication order. The sweep
// driver must match it bit for bit.
func serialVariant(t *testing.T, proto core.Config, v SweepVariant) SweepResult {
	t.Helper()
	reps := v.Replications
	if reps <= 0 {
		reps = 1
	}
	var regrets stats.Summary
	var rewardMean, bestQ float64
	var popSum []float64
	for rep := 0; rep < reps; rep++ {
		cfg := proto
		cfg.N = v.N
		cfg.Engine = v.Engine
		cfg.Seed = SeedFor(v.Seed, rep)
		g, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cum float64
		for s := 0; s < v.Steps; s++ {
			if err := g.Step(); err != nil {
				t.Fatal(err)
			}
			cum += g.GroupReward()
		}
		avg := cum / float64(v.Steps)
		bestQ = g.BestQuality()
		regrets.Add(bestQ - avg)
		rewardMean += (avg - rewardMean) / float64(rep+1)
		pop := g.Popularity()
		if popSum == nil {
			popSum = make([]float64, len(pop))
		}
		for j := range pop {
			popSum[j] += pop[j]
		}
	}
	for j := range popSum {
		popSum[j] /= float64(reps)
	}
	return SweepResult{
		BestQuality:        bestQ,
		AverageGroupReward: rewardMean,
		Regret:             regrets.Mean(),
		RegretStdDev:       regrets.StdDev(),
		Popularity:         popSum,
	}
}

// TestRunSweepBitIdentical checks the batched sweep reproduces the
// serial per-variant path exactly across engines, population sizes,
// horizons, and replication counts, and for a ring-network family.
func TestRunSweepBitIdentical(t *testing.T) {
	t.Parallel()

	families := []struct {
		proto    core.Config
		variants []SweepVariant
	}{
		{core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}, []SweepVariant{
			{N: 1000, Steps: 300, Seed: 1},
			{N: 10_000, Steps: 150, Seed: 2, Replications: 3},
			{N: 200, Engine: core.EngineAgent, Steps: 200, Seed: 3},
			{N: 0, Steps: 250, Seed: 4}, // infinite-population process
			{N: 5000, Steps: 100, Seed: 1, Replications: 2},
		}},
		{core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Network: ringGraph(t, 40)}, []SweepVariant{
			{Steps: 200, Seed: 5, Replications: 3},
			{Steps: 120, Seed: 6},
		}},
	}
	for f, fam := range families {
		results, err := RunSweep(context.Background(), fam.proto, fam.variants, SweepOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(fam.variants) {
			t.Fatalf("family %d: got %d results for %d variants", f, len(results), len(fam.variants))
		}
		for i, v := range fam.variants {
			want := serialVariant(t, fam.proto, v)
			assertSweepResultEqual(t, fmt.Sprintf("family %d variant %d", f, i), results[i], want)
			if results[i].BestQuality != want.BestQuality {
				t.Errorf("family %d variant %d bestQ %v, want %v", f, i, results[i].BestQuality, want.BestQuality)
			}
		}
	}
}

// ringGraph builds an n-node ring for network-family sweeps.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunSweepGate checks a shared gate serializes tasks without
// deadlocking or changing results, including across two concurrent
// sweeps sharing the gate (the scheduler's aggregate-parallelism
// bound).
func TestRunSweepGate(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}
	gate := make(chan struct{}, 1)
	mk := func(seedBase uint64) []SweepVariant {
		return []SweepVariant{
			{N: 1000, Steps: 200, Seed: seedBase, Replications: 2},
			{N: 2000, Steps: 150, Seed: seedBase + 1},
		}
	}
	var wg sync.WaitGroup
	out := make([][]SweepResult, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = RunSweep(context.Background(), proto, mk(uint64(10*i+1)),
				SweepOptions{Workers: 4, Gate: gate})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		for v, res := range out[i] {
			if res.Err != nil {
				t.Fatalf("sweep %d variant %d: %v", i, v, res.Err)
			}
			want := serialVariant(t, proto, mk(uint64(10*i + 1))[v])
			if res.Regret != want.Regret {
				t.Errorf("sweep %d variant %d regret %v, want %v", i, v, res.Regret, want.Regret)
			}
		}
	}
	if len(gate) != 0 {
		t.Errorf("gate not fully released: %d slots held", len(gate))
	}
}

func TestRunSweepBadOptions(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.8, 0.4}, Beta: 0.65}
	if _, err := RunSweep(context.Background(), proto, nil, SweepOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("empty sweep accepted: %v", err)
	}
	if _, err := RunSweep(context.Background(), proto,
		[]SweepVariant{{N: 10, Steps: 0, Seed: 1}}, SweepOptions{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("zero-step variant accepted: %v", err)
	}
	bad := core.Config{Qualities: []float64{0.8, 0.4}, Beta: 9}
	if _, err := RunSweep(context.Background(), bad,
		[]SweepVariant{{N: 10, Steps: 10, Seed: 1}}, SweepOptions{}); err == nil {
		t.Error("invalid family accepted")
	}
}

// TestRunSweepClaimOrder runs one mixed v1/v2 sweep of cheap tasks
// through a shared gate at several worker counts. However the workers
// interleave their claims, every count must reproduce the one-worker
// results bit for bit, start each task exactly once, and return every
// gate slot. The sweep's 106 v2 lanes run in BlockLanes-wide blocks at
// 1–3 workers, 235 tasks, and in 7-lane blocks at 16, 246 tasks.
func TestRunSweepClaimOrder(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.9, 0.6, 0.3}, Beta: 0.8, Alpha: 0.35}
	variants := []SweepVariant{
		{N: 300, Steps: 6, Seed: 1, Replications: 100},
		{N: 40, Engine: core.EngineAgent, Steps: 5, Seed: 2, Replications: 70},
		{N: 2000, Steps: 7, Seed: 3, Replications: 2*BlockLanes + 5, DrawOrder: "v2"},
		{N: 0, Steps: 8, Seed: 4, Replications: 60},
		{N: 50, Engine: core.EngineAgent, Steps: 4, Seed: 5, Replications: BlockLanes, DrawOrder: "v2"},
		{N: 700, Steps: 3, Seed: 6, Replications: 5, DrawOrder: "v2"},
	}
	var want []SweepResult
	for _, workers := range []int{1, 2, 3, 16} {
		tasks := sweepTasks(variants, workers)
		var ctrs SweepCounters
		gate := make(chan struct{}, 2)
		results, err := RunSweep(context.Background(), proto, variants,
			SweepOptions{Workers: workers, Gate: gate, Counters: &ctrs})
		if err != nil {
			t.Fatal(err)
		}
		if got := ctrs.Tasks.Load(); got != tasks {
			t.Errorf("workers=%d: %d tasks started, want %d", workers, got, tasks)
		}
		if len(gate) != 0 {
			t.Errorf("workers=%d: %d gate slots still held", workers, len(gate))
		}
		if want == nil {
			want = results
		}
		for v := range variants {
			assertSweepResultEqual(t, fmt.Sprintf("workers=%d variant %d", workers, v), results[v], want[v])
		}
	}
}

// sweepTasks is the task count RunSweep schedules for variants on
// workers: one task per v1 replication, and v2 blocks of
// min(BlockLanes, ⌈v2 lanes ÷ workers⌉) lanes.
func sweepTasks(variants []SweepVariant, workers int) uint64 {
	lanes := 0
	for _, v := range variants {
		if v.DrawOrder == "v2" {
			lanes += v.Replications
		}
	}
	width := min(BlockLanes, (lanes+workers-1)/workers)
	var tasks uint64
	for _, v := range variants {
		w := 1
		if v.DrawOrder == "v2" {
			w = width
		}
		tasks += uint64((v.Replications + w - 1) / w)
	}
	return tasks
}

// TestRunSweepCancelGiant cancels, after its first task, a sweep the
// serving layer admits. Its first 60 variants are v2, 5·10⁷ one-step
// lanes each at m = 2: 3·10⁹ lanes, which the block width must sum
// past a 32-bit int, so the first task must still be a full
// BlockLanes block. Then come 60 v1 variants of as many one-step
// replications, 3·10⁹ tasks, more than a 32-bit int counts. Workers
// must stop claiming at once, not run or fail the remaining tasks one
// by one, and every variant must report the cancellation.
func TestRunSweepCancelGiant(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.8, 0.4}, Beta: 0.65}
	variants := make([]SweepVariant, 120)
	for v := range variants {
		variants[v] = SweepVariant{N: 100, Steps: 1, Seed: uint64(v), Replications: 50_000_000}
		if v < 60 {
			variants[v].DrawOrder = "v2"
		}
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ctrs SweepCounters
		var narrow atomic.Int64 // lane count of a task narrower than BlockLanes
		opt := SweepOptions{Workers: workers, Counters: &ctrs,
			OnTask: func(_, lanes int, _ time.Duration) {
				if lanes != BlockLanes {
					narrow.Store(int64(lanes))
				}
				cancel()
			}}
		done := make(chan struct{})
		var results []SweepResult
		var err error
		go func() {
			defer close(done)
			results, err = RunSweep(ctx, proto, variants, opt)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: RunSweep still running 30 s after it was canceled", workers)
		}
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if ctrs.Tasks.Load() < 1 {
			t.Errorf("workers=%d: no task started", workers)
		}
		if n := narrow.Load(); n != 0 {
			t.Errorf("workers=%d: a v2 task ran %d lanes, want %d", workers, n, BlockLanes)
		}
		for v, res := range results {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("workers=%d variant %d: Err = %v, want context.Canceled", workers, v, res.Err)
			}
		}
	}
}

// TestRunSweepCancelStopsRunningTask cancels a sweep once its one task
// has begun: a v1 agent replication at N = 10⁶, milliseconds a step.
// The running task must stop at its next step, so RunSweep returns
// long before the 2,048 steps a fixed context-check interval let such
// a task run between checks.
func TestRunSweepCancelStopsRunningTask(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}
	variants := []SweepVariant{{N: 1_000_000, Engine: core.EngineAgent, Steps: 4_000, Seed: 1}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ctrs SweepCounters
	type outcome struct {
		results []SweepResult
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, err := RunSweep(ctx, proto, variants, SweepOptions{Workers: 1, Counters: &ctrs})
		done <- outcome{results, err}
	}()
	for ctrs.Tasks.Load() == 0 {
		select {
		case out := <-done:
			t.Fatalf("RunSweep returned before its task began: %v", out.err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	start := time.Now()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("RunSweep still running 60 s after it was canceled")
	}
	// One step takes a few milliseconds (tens under -race); 2,048 of
	// them take seconds.
	if latency := time.Since(start); latency > time.Second {
		t.Errorf("RunSweep returned %s after cancel, want under 1s", latency)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !errors.Is(out.results[0].Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", out.results[0].Err)
	}
}

// serialVariantV2 is the unbatched v2 reference: one single-lane block
// group per replication (lane0 = rep, the narrowest legal partition),
// merged in replication order. The block scheduler must match it bit
// for bit whatever its block width or worker count — the
// chunk-invariance half of the v2 contract, exercised end to end.
func serialVariantV2(t *testing.T, proto core.Config, v SweepVariant) SweepResult {
	t.Helper()
	reps := v.Replications
	if reps <= 0 {
		reps = 1
	}
	var regrets stats.Summary
	var rewardMean, bestQ float64
	var popSum []float64
	for rep := 0; rep < reps; rep++ {
		cfg := proto
		cfg.N = v.N
		cfg.Engine = v.Engine
		cfg.Seed = v.Seed
		g, err := core.NewBlock(cfg, rep, 1)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < v.Steps; s++ {
			if err := g.StepBlock(); err != nil {
				t.Fatal(err)
			}
		}
		avg := g.CumulativeGroupReward(0) / float64(v.Steps)
		bestQ = g.BestQuality()
		regrets.Add(bestQ - avg)
		rewardMean += (avg - rewardMean) / float64(rep+1)
		pop := g.AppendPopularity(0, nil)
		if popSum == nil {
			popSum = make([]float64, len(pop))
		}
		for j := range pop {
			popSum[j] += pop[j]
		}
	}
	for j := range popSum {
		popSum[j] /= float64(reps)
	}
	return SweepResult{
		BestQuality:        bestQ,
		AverageGroupReward: rewardMean,
		Regret:             regrets.Mean(),
		RegretStdDev:       regrets.StdDev(),
		Popularity:         popSum,
	}
}

func assertSweepResultEqual(t *testing.T, label string, got, want SweepResult) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: %v", label, got.Err)
	}
	if got.Regret != want.Regret {
		t.Errorf("%s regret %v, want %v", label, got.Regret, want.Regret)
	}
	if got.AverageGroupReward != want.AverageGroupReward {
		t.Errorf("%s reward %v, want %v", label, got.AverageGroupReward, want.AverageGroupReward)
	}
	if got.RegretStdDev != want.RegretStdDev {
		t.Errorf("%s stddev %v, want %v", label, got.RegretStdDev, want.RegretStdDev)
	}
	for j := range want.Popularity {
		if got.Popularity[j] != want.Popularity[j] {
			t.Errorf("%s popularity[%d] = %v, want %v", label, j, got.Popularity[j], want.Popularity[j])
		}
	}
}

// TestRunSweepV2BlockScheduling checks v2 variants produce results bit
// identical to the single-lane serial reference — i.e. block width and
// worker count are invisible — including a replication count that does
// not divide BlockLanes (forcing a tail block), a mixed v1/v2 sweep in
// one call, and a ring-network family.
func TestRunSweepV2BlockScheduling(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}
	variants := []SweepVariant{
		// BlockLanes+3 replications: one full block plus a 3-lane tail.
		{N: 200, Engine: core.EngineAgent, Steps: 60, Seed: 1, Replications: BlockLanes + 3, DrawOrder: "v2"},
		{N: 20_000, Steps: 80, Seed: 2, Replications: 5, DrawOrder: "v2"},
		{N: 0, Steps: 120, Seed: 3, Replications: 4, DrawOrder: "v2"},
		// A v1 variant rides along: mixing orders in one sweep must not
		// disturb either path.
		{N: 200, Engine: core.EngineAgent, Steps: 60, Seed: 1, Replications: 3, DrawOrder: "v1"},
	}
	ring := proto
	ring.Network = ringGraph(t, 40)
	ringVariants := []SweepVariant{
		{Steps: 80, Seed: 4, Replications: 5, DrawOrder: "v2"},
		{Steps: 60, Seed: 5, Replications: 2, DrawOrder: "v1"},
	}
	for _, workers := range []int{1, 4} {
		results, err := RunSweep(context.Background(), proto, variants, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range variants[:3] {
			want := serialVariantV2(t, proto, v)
			assertSweepResultEqual(t, fmt.Sprintf("workers=%d variant %d", workers, i), results[i], want)
		}
		assertSweepResultEqual(t, fmt.Sprintf("workers=%d v1 variant", workers),
			results[3], serialVariant(t, proto, variants[3]))

		results, err = RunSweep(context.Background(), ring, ringVariants, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSweepResultEqual(t, fmt.Sprintf("workers=%d ring v2", workers),
			results[0], serialVariantV2(t, ring, ringVariants[0]))
		assertSweepResultEqual(t, fmt.Sprintf("workers=%d ring v1", workers),
			results[1], serialVariant(t, ring, ringVariants[1]))
	}
}

// TestRunSweepNetworkBlockWidth pins the v2 block width, visible as
// the tasks and their lane counts. A network family runs one lane per
// block (its blocks keep one dynamics state per lane, so width
// multiplies memory). Every other family runs blocks of
// min(BlockLanes, ⌈v2 lanes in the run ÷ workers⌉) lanes, so a solo
// variant splits across the workers while a sweep whose variants
// already give every worker a block keeps one block per variant.
func TestRunSweepNetworkBlockWidth(t *testing.T) {
	t.Parallel()

	plain := core.Config{Qualities: []float64{0.8, 0.4}, Beta: 0.65}
	ring := plain
	ring.Network = ringGraph(t, 16)
	v := SweepVariant{N: 100, Steps: 30, Seed: 3, Replications: 5, DrawOrder: "v2"}
	eight := []SweepVariant{v, v}
	eight[0].Replications, eight[1].Replications, eight[1].Seed = 8, 8, 4
	for _, tc := range []struct {
		name     string
		proto    core.Config
		variants []SweepVariant
		workers  int
		lanes    []int // lane count of each task, in task order
	}{
		{"plain/1 worker", plain, []SweepVariant{v}, 1, []int{5}},
		{"plain/2 workers", plain, []SweepVariant{v}, 2, []int{3, 2}},
		{"ring/1 worker", ring, []SweepVariant{v}, 1, []int{1, 1, 1, 1, 1}},
		{"ring/2 workers", ring, []SweepVariant{v}, 2, []int{1, 1, 1, 1, 1}},
		{"two 8-lane variants/2 workers", plain, eight, 2, []int{8, 8}},
	} {
		var ctrs SweepCounters
		var mu sync.Mutex
		lanes := map[int][]int{} // per variant, in finishing order
		results, err := RunSweep(context.Background(), tc.proto, tc.variants,
			SweepOptions{Workers: tc.workers, Counters: &ctrs, OnTask: func(v, n int, _ time.Duration) {
				mu.Lock()
				lanes[v] = append(lanes[v], n)
				mu.Unlock()
			}})
		if err != nil {
			t.Fatal(err)
		}
		if got := ctrs.Tasks.Load(); got != uint64(len(tc.lanes)) {
			t.Errorf("%s: %d tasks, want %d", tc.name, got, len(tc.lanes))
		}
		var got []int
		for v := range tc.variants {
			sort.Sort(sort.Reverse(sort.IntSlice(lanes[v])))
			got = append(got, lanes[v]...)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.lanes) {
			t.Errorf("%s: task lanes %v, want %v", tc.name, got, tc.lanes)
		}
		for i, v := range tc.variants {
			assertSweepResultEqual(t, fmt.Sprintf("%s variant %d", tc.name, i), results[i], serialVariantV2(t, tc.proto, v))
		}
	}
}

// TestRunSweepTrajectory checks the trajectory sink: replication 0's
// per-step rows (lane 0 of the first block under v2) equal a direct
// core run's, whatever the replication count, worker count, or
// family.
func TestRunSweepTrajectory(t *testing.T) {
	t.Parallel()

	plain := core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}
	ring := plain
	ring.Network = ringGraph(t, 24)
	const steps, every = 50, 7
	for _, tc := range []struct {
		name  string
		proto core.Config
		v     SweepVariant
	}{
		{"aggregate v1", plain, SweepVariant{N: 1000, Steps: steps, Seed: 2, Replications: 3}},
		{"agent v2", plain, SweepVariant{N: 100, Engine: core.EngineAgent, Steps: steps, Seed: 3, Replications: 3, DrawOrder: "v2"}},
		{"ring v1", ring, SweepVariant{Steps: steps, Seed: 4, Replications: 2}},
		{"ring v2", ring, SweepVariant{Steps: steps, Seed: 5, Replications: 2, DrawOrder: "v2"}},
	} {
		cols := append([]string{"t", "group_reward"}, trace.VectorColumns("q", 3)...)
		rec, err := trace.NewRecorder(every, cols...)
		if err != nil {
			t.Fatal(err)
		}
		v := tc.v
		v.Trajectory = rec
		results, err := RunSweep(context.Background(), tc.proto, []SweepVariant{v}, SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}

		// Reference: replication 0 stepped directly, every row kept.
		cfg := tc.proto
		cfg.N, cfg.Engine = v.N, v.Engine
		var step func() (reward float64, pop []float64)
		if v.DrawOrder == "v2" {
			cfg.Seed = v.Seed
			b, err := core.NewBlock(cfg, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			step = func() (float64, []float64) {
				if err := b.StepBlock(); err != nil {
					t.Fatal(err)
				}
				return b.GroupReward(0), b.AppendPopularity(0, nil)
			}
		} else {
			cfg.Seed = SeedFor(v.Seed, 0)
			g, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			step = func() (float64, []float64) {
				if err := g.Step(); err != nil {
					t.Fatal(err)
				}
				return g.GroupReward(), g.Popularity()
			}
		}
		if got, want := rec.Len(), (steps+every-1)/every; got != want {
			t.Fatalf("%s: %d rows, want %d", tc.name, got, want)
		}
		for s := 1; s <= steps; s++ {
			reward, pop := step()
			if (s-1)%every != 0 {
				continue
			}
			want := append([]float64{float64(s), reward}, pop...)
			got := rec.Row((s - 1) / every)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: row t=%d col %d = %v, want %v", tc.name, s, j, got[j], want[j])
				}
			}
		}
	}
}

// TestRunSweepV2DiffersFromV1 pins that the two draw orders are
// distinct contracts: the same variant under "v2" must not reproduce
// its v1 scalars.
func TestRunSweepV2DiffersFromV1(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}
	base := SweepVariant{N: 500, Engine: core.EngineAgent, Steps: 100, Seed: 9, Replications: 3}
	v2 := base
	v2.DrawOrder = "v2"
	results, err := RunSweep(context.Background(), proto, []SweepVariant{base, v2}, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatal(results[0].Err, results[1].Err)
	}
	if results[0].AverageGroupReward == results[1].AverageGroupReward {
		t.Errorf("v2 reproduced the v1 reward %v — the draw orders must be distinct", results[0].AverageGroupReward)
	}
}

// TestRunSweepV2BlockCache checks the per-worker block cache serves
// repeated same-shape blocks via Reset and that task accounting counts
// blocks, not replications, for v2 variants.
func TestRunSweepV2BlockCache(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.8, 0.4}, Beta: 0.65}
	variants := []SweepVariant{
		{N: 300, Engine: core.EngineAgent, Steps: 40, Seed: 1, Replications: 3 * BlockLanes, DrawOrder: "v2"},
	}
	var ctrs SweepCounters
	results, err := RunSweep(context.Background(), proto, variants,
		SweepOptions{Workers: 1, Counters: &ctrs})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if got, want := ctrs.Tasks.Load(), uint64(3); got != want {
		t.Errorf("Tasks = %d, want %d (one per block)", got, want)
	}
	if ctrs.EngineBuilds.Load() != 1 || ctrs.EngineReuses.Load() != 2 {
		t.Errorf("builds=%d reuses=%d, want 1 build and 2 reuses on a single worker",
			ctrs.EngineBuilds.Load(), ctrs.EngineReuses.Load())
	}
	want := serialVariantV2(t, proto, variants[0])
	assertSweepResultEqual(t, "cached blocks", results[0], want)
}

func TestRunSweepRejectsUnknownDrawOrder(t *testing.T) {
	t.Parallel()

	proto := core.Config{Qualities: []float64{0.8, 0.4}, Beta: 0.65}
	_, err := RunSweep(context.Background(), proto,
		[]SweepVariant{{N: 10, Steps: 10, Seed: 1, DrawOrder: "v3"}}, SweepOptions{})
	if !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown draw order accepted: %v", err)
	}
}

// TestRunSweepMergeOrder pins the streaming merge: replications that
// finish out of order fold exactly as they would in order, bit for
// bit, even though each arrives in a scratch buffer its worker reuses;
// a failed variant reports its lowest failed replication's error.
func TestRunSweepMergeOrder(t *testing.T) {
	t.Parallel()

	avgs := []float64{0.71, 0.64, 0.69, 0.58, 0.73}
	pops := [][]float64{{0.5, 0.3, 0.2}, {0.4, 0.4, 0.2}, {0.6, 0.3, 0.1}, {0.2, 0.5, 0.3}, {0.7, 0.2, 0.1}}
	merge := func(order []int) SweepResult {
		var st variantState
		scratch := make([]float64, 3)
		for _, rep := range order {
			copy(scratch, pops[rep])
			st.add(rep, avgs[rep], 0.9, scratch)
		}
		return st.result()
	}
	want := merge([]int{0, 1, 2, 3, 4})
	for _, order := range [][]int{{4, 3, 2, 1, 0}, {1, 0, 3, 2, 4}, {2, 4, 0, 3, 1}} {
		assertSweepResultEqual(t, fmt.Sprint(order), merge(order), want)
	}

	var st variantState
	st.add(1, avgs[1], 0.9, pops[1])
	late, early := errors.New("late"), errors.New("early")
	st.fail(3, late)
	st.fail(2, early)
	st.add(0, avgs[0], 0.9, pops[0])
	if res := st.result(); res.Err != early {
		t.Errorf("failed variant Err = %v, want the lowest failed replication's %v", res.Err, early)
	}
}
