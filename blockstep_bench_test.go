package repro_test

// BenchmarkCoreStepBlock pins the draw_order v2 replication-block path
// against the v1 per-trajectory path it vectorizes away from: one
// BlockGroup stepping `lanes` replications per StepBlock versus `lanes`
// independent core.Groups each stepping once — the exact two execution
// shapes the serving layer chooses between on a spec's draw_order. The
// two sides compute DIFFERENT trajectories by design (the v2 contract
// stripes seeds with its own finalizer), so unlike BenchmarkCoreStep
// there is no bit-identity assert here; fairness comes from timing the
// same number of lane-steps of the same parameterization, interleaved
// in small alternating chunks. Pins (per-chunk median ratio):
//
//   - agent engine, m=3  ≥ 2.0× (the headline win, ~15–20× here: the
//     homogeneous-rule block form advances the counts-based law in O(m)
//     draws per lane-step where v1 walks all N agents);
//   - infinite, m=3      ≥ 1.15× (elides the per-step log-potential and
//     normalizes by reciprocal multiply; measures ~1.3–1.45×, pinned
//     with headroom for single-iteration CI noise);
//   - agent m=64, infinite m=64, and aggregate: report-only. The agent
//     block's per-category draws overtake v1's per-agent draws as m
//     grows against N (m=64, N=1024 sits past the crossover — regime
//     guidance lives in the doc.go draw-order section); wide-m infinite
//     steps are reward-draw-bound on both sides; aggregate v1 already
//     advances counts, so the block path can only amortize dispatch.
//
// BenchmarkSweepBlock pins ≥ 2.0× end-to-end through
// experiment.RunSweep (replication-heavy agent variant, v1 tasks vs v2
// blocks, Workers=1 so the ratio is per-core throughput, not
// parallelism) — the roadmap's acceptance workload. TestBlockStepAllocs
// pins the zero-allocation steady state of StepBlock across all four
// engines. CI records all of it in BENCH_core.json alongside the v1
// benchmarks.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/graph"
)

// benchBlockLanes is the block width the benchmarks run at — the same
// width the sweep scheduler uses, so the measured ratio is the one the
// serving layer actually buys.
const benchBlockLanes = experiment.BlockLanes

// benchBlockPair times the v2 block against the v1 per-trajectory set
// over the same number of lane-steps: per chunk, `n` StepBlocks (n ×
// lanes lane-steps) against `n` Steps of each of `lanes` groups. The
// chunks alternate sides so scheduler and frequency noise lands on both
// alike, and the reported speedup is the median per-chunk ratio — a
// one-off spike skews one window, not the median of 16.
func benchBlockPair(b *testing.B, blk *core.BlockGroup, groups []*core.Group, innerSteps int) float64 {
	b.Helper()
	lanes := benchBlockLanes
	runBlock := func(n int) time.Duration {
		start := time.Now()
		for s := 0; s < n; s++ {
			if err := blk.StepBlock(); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	runV1 := func(n int) time.Duration {
		start := time.Now()
		for _, g := range groups {
			for s := 0; s < n; s++ {
				if err := g.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	// Warm caches and let reusable buffers reach steady state.
	runBlock(8)
	runV1(8)
	const chunks = 16
	chunk := innerSteps / chunks
	if chunk < 1 {
		chunk = 1
	}
	var tBlock, tV1 time.Duration
	ratios := make([]float64, 0, chunks*b.N)
	for i := 0; i < b.N; i++ {
		done := 0
		for c := 0; c < chunks && done < innerSteps; c++ {
			n := chunk
			if rem := innerSteps - done; c == chunks-1 || n > rem {
				n = rem
			}
			db := runBlock(n)
			dv := runV1(n)
			tBlock += db
			tV1 += dv
			if db > 0 {
				ratios = append(ratios, float64(dv)/float64(db))
			}
			done += n
		}
	}
	laneSteps := float64(b.N*innerSteps) * float64(lanes)
	blockNs := float64(tBlock.Nanoseconds()) / laneSteps
	v1Ns := float64(tV1.Nanoseconds()) / laneSteps
	sort.Float64s(ratios)
	speedup := ratios[len(ratios)/2]
	b.ReportMetric(blockNs, "ns/lane-step")
	b.ReportMetric(v1Ns, "v1_ns/lane-step")
	b.ReportMetric(speedup, "speedup_x")
	return speedup
}

// blockBenchPair builds the two sides of one comparison: a lanes-wide
// v2 block at lane0 = 0 and the v1 per-trajectory set over the same
// replication indices (replication r runs core.New with seed
// SeedFor(seed, r) — the serving layer's v1 per-replication seeding).
func blockBenchPair(b *testing.B, cfg core.Config) (*core.BlockGroup, []*core.Group) {
	b.Helper()
	blk, err := core.NewBlock(cfg, 0, benchBlockLanes)
	if err != nil {
		b.Fatal(err)
	}
	groups := make([]*core.Group, benchBlockLanes)
	for k := range groups {
		gcfg := cfg
		gcfg.Seed = experiment.SeedFor(cfg.Seed, k)
		g, err := core.New(gcfg)
		if err != nil {
			b.Fatal(err)
		}
		groups[k] = g
	}
	return blk, groups
}

func BenchmarkCoreStepBlock(b *testing.B) {
	for _, m := range []int{3, 64} {
		m := m
		b.Run(fmt.Sprintf("agent/m=%d", m), func(b *testing.B) {
			blk, groups := blockBenchPair(b, core.Config{
				N: 1024, Engine: core.EngineAgent, Qualities: coreStepQualities(m),
				Beta: coreStepBeta, Mu: coreStepMu, Seed: coreStepSeed,
			})
			speedup := benchBlockPair(b, blk, groups, 96)
			// Pinned only at small m: the counts-based stage-1 costs
			// O(m) binomial draws per lane-step against v1's O(N)
			// per-agent draws, so its advantage inverts once m grows
			// against N (see the file comment).
			if m == 3 && speedup < 2.0 && !benchPinsDisabled() {
				b.Fatalf("agent block speedup %.2fx below the 2.0x pin", speedup)
			}
		})
		b.Run(fmt.Sprintf("infinite/m=%d", m), func(b *testing.B) {
			blk, groups := blockBenchPair(b, core.Config{
				Qualities: coreStepQualities(m), Beta: coreStepBeta,
				Mu: coreStepMu, Seed: coreStepSeed,
			})
			speedup := benchBlockPair(b, blk, groups, 1600)
			// Pinned only at small m: wide-m steps are reward-draw-bound
			// on both sides, so the elided log and division shrink
			// toward the noise floor.
			if m == 3 && speedup < 1.15 && !benchPinsDisabled() {
				b.Fatalf("infinite block speedup %.2fx below the 1.15x pin", speedup)
			}
		})
		b.Run(fmt.Sprintf("aggregate/m=%d", m), func(b *testing.B) {
			blk, groups := blockBenchPair(b, core.Config{
				N: 100_000, Qualities: coreStepQualities(m),
				Beta: coreStepBeta, Mu: coreStepMu, Seed: coreStepSeed,
			})
			// Report-only: v1 already advances counts with the same
			// samplers, so the block path's win is bounded by the
			// dispatch overhead it amortizes.
			benchBlockPair(b, blk, groups, 320)
		})
	}
}

// BenchmarkSweepBlock runs the same replication-heavy agent variant
// through experiment.RunSweep under each draw-order contract with one
// worker, so the ratio isolates what block scheduling buys per core at
// the layer the serving path actually calls — task scheduling and
// engine-cache traffic included. This is the ISSUE's acceptance
// workload; the median ratio pins ≥ 2.0×.
func BenchmarkSweepBlock(b *testing.B) {
	proto := core.Config{
		Qualities: coreStepQualities(3), Beta: coreStepBeta, Mu: coreStepMu,
	}
	variant := experiment.SweepVariant{
		N: 512, Engine: core.EngineAgent, Steps: 200,
		Replications: 2 * benchBlockLanes, Seed: coreStepSeed,
	}
	run := func(order string) time.Duration {
		v := variant
		v.DrawOrder = order
		start := time.Now()
		results, err := experiment.RunSweep(context.Background(), proto,
			[]experiment.SweepVariant{v}, experiment.SweepOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if results[0].Err != nil {
			b.Fatal(results[0].Err)
		}
		return time.Since(start)
	}
	run("v1")
	run("v2")
	const pairs = 4
	var tV1, tV2 time.Duration
	ratios := make([]float64, 0, pairs*b.N)
	for i := 0; i < b.N; i++ {
		for p := 0; p < pairs; p++ {
			d2 := run("v2")
			d1 := run("v1")
			tV1 += d1
			tV2 += d2
			if d2 > 0 {
				ratios = append(ratios, float64(d1)/float64(d2))
			}
		}
	}
	laneSteps := float64(b.N*pairs) * float64(variant.Replications*variant.Steps)
	b.ReportMetric(float64(tV2.Nanoseconds())/laneSteps, "ns/lane-step")
	b.ReportMetric(float64(tV1.Nanoseconds())/laneSteps, "v1_ns/lane-step")
	sort.Float64s(ratios)
	speedup := ratios[len(ratios)/2]
	b.ReportMetric(speedup, "speedup_x")
	if speedup < 2.0 && !benchPinsDisabled() {
		b.Fatalf("v2 sweep speedup %.2fx below the 2.0x pin", speedup)
	}
}

// TestBlockStepAllocs pins the block path's zero-allocation contract: a
// steady-state StepBlock of every engine — through the core.BlockGroup
// seam the v2 scheduler drives — performs no heap allocation, at a
// width (5) that is not a power of two. Skipped under the race
// detector, whose instrumentation perturbs allocation counts.
func TestBlockStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const lanes = 5
	ring, err := graph.Ring(256)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"aggregate/m=3", core.Config{N: 100_000, Qualities: coreStepQualities(3), Beta: coreStepBeta, Mu: coreStepMu}},
		{"aggregate/m=64", core.Config{N: 100_000, Qualities: coreStepQualities(64), Beta: coreStepBeta, Mu: coreStepMu}},
		{"agent/m=3", core.Config{N: 512, Engine: core.EngineAgent, Qualities: coreStepQualities(3), Beta: coreStepBeta, Mu: coreStepMu}},
		{"agent/m=64", core.Config{N: 512, Engine: core.EngineAgent, Qualities: coreStepQualities(64), Beta: coreStepBeta, Mu: coreStepMu}},
		{"infinite/m=3", core.Config{Qualities: coreStepQualities(3), Beta: coreStepBeta, Mu: coreStepMu}},
		{"infinite/m=64", core.Config{Qualities: coreStepQualities(64), Beta: coreStepBeta, Mu: coreStepMu}},
		{"netpop/m=3", core.Config{Network: ring, Qualities: coreStepQualities(3), Beta: coreStepBeta, Mu: coreStepMu}},
		{"netpop/m=64", core.Config{Network: ring, Qualities: coreStepQualities(64), Beta: coreStepBeta, Mu: coreStepMu}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = coreStepSeed
			blk, err := core.NewBlock(tc.cfg, 0, lanes)
			if err != nil {
				t.Fatal(err)
			}
			// Reach steady state: first steps may grow reusable buffers
			// to their high-water capacity.
			for i := 0; i < 16; i++ {
				if err := blk.StepBlock(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := blk.StepBlock(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state StepBlock allocates %.2f objects per call, want 0", allocs)
			}
		})
	}
}
