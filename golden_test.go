package repro_test

// Golden-fixture pins for the simulation hot path: the RNG draw order of
// every engine is a compatibility surface (cache keys, sweep bit-identity,
// and cross-restart durability all assume a spec replays to the same
// Report), so the exact float bits of seeded runs are pinned here — one
// fixture set per draw-order contract version.
//
// goldenWantsV1 was captured from the pre-sampler-refactor engines and is
// frozen: any change to those values means a pre-versioning spec no longer
// replays to the same report and every persisted cache entry is silently
// stale. goldenWantsV2 pins the draw_order v2 replication-block contract
// (one block of 5 lanes, a partition that is not a power of two, merged
// in replication order with the serving arithmetic). Regenerate (run with
// GOLDEN_PRINT=1 and paste the output) only when a draw-order change is
// deliberate enough to mint a NEW version — existing versions' tables
// never change.

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

type goldenCase struct {
	name  string
	steps int
	build func(t testing.TB) core.Config
}

type goldenWant struct {
	avgBits    uint64
	regretBits uint64
	popBits    []uint64
}

func goldenCases() []goldenCase {
	mustGraph := func(g *graph.Graph, err error) func(testing.TB) *graph.Graph {
		return func(t testing.TB) *graph.Graph {
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	ring := mustGraph(graph.Ring(60))
	er := mustGraph(graph.ErdosRenyi(50, 0.15, rng.New(123)))
	star := mustGraph(graph.Star(41))
	return []goldenCase{
		{"aggregate/m=3", 500, func(testing.TB) core.Config {
			return core.Config{N: 10_000, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Seed: 1}
		}},
		{"aggregate/m=4/N=1e6", 300, func(testing.TB) core.Config {
			return core.Config{N: 1_000_000, Qualities: []float64{0.6, 0.55, 0.5, 0.45}, Beta: 0.6, Seed: 42}
		}},
		{"aggregate/m=8/smallN", 400, func(testing.TB) core.Config {
			return core.Config{
				N: 137, Qualities: []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2},
				Beta: 0.55, Alpha: 0.3, Mu: 0.1, Seed: 7,
			}
		}},
		{"agent/m=3", 400, func(testing.TB) core.Config {
			return core.Config{N: 500, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Engine: core.EngineAgent, Seed: 3}
		}},
		{"agent/m=5", 300, func(testing.TB) core.Config {
			return core.Config{
				N: 1000, Qualities: []float64{0.8, 0.7, 0.6, 0.5, 0.4}, Beta: 0.65,
				Engine: core.EngineAgent, Seed: 11,
			}
		}},
		{"agent/m=2/asym", 500, func(testing.TB) core.Config {
			return core.Config{
				N: 256, Qualities: []float64{0.7, 0.3}, Beta: 0.9, Alpha: 0.2, Mu: 0.05,
				Engine: core.EngineAgent, Seed: 99,
			}
		}},
		{"infinite/m=3", 1000, func(testing.TB) core.Config {
			return core.Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Seed: 5}
		}},
		{"infinite/m=6", 800, func(testing.TB) core.Config {
			return core.Config{Qualities: []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4}, Beta: 0.6, Seed: 13}
		}},
		{"infinite/m=2/mu=0.2", 600, func(testing.TB) core.Config {
			return core.Config{Qualities: []float64{0.55, 0.45}, Beta: 0.75, Mu: 0.2, Seed: 21}
		}},
		{"network/ring", 300, func(t testing.TB) core.Config {
			return core.Config{Network: ring(t), Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Seed: 17}
		}},
		{"network/erdos-renyi", 300, func(t testing.TB) core.Config {
			return core.Config{Network: er(t), Qualities: []float64{0.8, 0.6}, Beta: 0.65, Mu: 0.1, Seed: 23}
		}},
		{"network/star/m=4", 200, func(t testing.TB) core.Config {
			return core.Config{Network: star(t), Qualities: []float64{0.85, 0.6, 0.55, 0.5}, Beta: 0.7, Seed: 29}
		}},
	}
}

func runGolden(t testing.TB, gc goldenCase) core.Report {
	t.Helper()
	g, err := core.New(gc.build(t))
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	report, err := g.Run(gc.steps)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return report
}

// goldenV2Lanes is the block width the v2 fixtures run at: 5 lanes is a
// partition that is not a power of two, and since every lane replays the
// same draws at any width (the chunk-invariance contract) and the
// replication-order merge below is width-independent, the fixtures pin
// that partition to the values every other one must give.
const goldenV2Lanes = 5

// runGoldenV2 runs the case as one draw_order v2 replication block and
// merges the lanes with the serving layer's replication-order arithmetic,
// so these fixtures pin both the per-lane draws and the merge.
func runGoldenV2(t testing.TB, gc goldenCase) core.Report {
	t.Helper()
	b, err := core.NewBlock(gc.build(t), 0, goldenV2Lanes)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	for s := 0; s < gc.steps; s++ {
		if err := b.StepBlock(); err != nil {
			t.Fatalf("%s: step %d: %v", gc.name, s, err)
		}
	}
	var regrets stats.Summary
	var rewardMean float64
	bestQ := b.BestQuality()
	popSum := make([]float64, b.Options())
	for k := 0; k < goldenV2Lanes; k++ {
		avg := b.CumulativeGroupReward(k) / float64(gc.steps)
		regrets.Add(bestQ - avg)
		rewardMean += (avg - rewardMean) / float64(k+1)
		for j, p := range b.AppendPopularity(k, nil) {
			popSum[j] += p
		}
	}
	for j := range popSum {
		popSum[j] /= goldenV2Lanes
	}
	return core.Report{
		Steps:              gc.steps,
		AverageGroupReward: rewardMean,
		Regret:             regrets.Mean(),
		Popularity:         popSum,
	}
}

// goldenVersions maps each contract version onto its runner and fixture
// set. Adding a draw_order v3 means adding a row here and regenerating
// ONLY the new table.
var goldenVersions = []struct {
	version string
	run     func(testing.TB, goldenCase) core.Report
	wants   map[string]goldenWant
}{
	{"v1", runGolden, goldenWantsV1},
	{"v2", runGoldenV2, goldenWantsV2},
}

// TestGoldenReports pins the exact output bits of seeded runs across all
// four engines (aggregate, agent, infinite, network), for every
// draw-order contract version.
func TestGoldenReports(t *testing.T) {
	for _, gv := range goldenVersions {
		gv := gv
		for _, gc := range goldenCases() {
			gc := gc
			t.Run(gv.version+"/"+gc.name, func(t *testing.T) {
				t.Parallel()
				want, ok := gv.wants[gc.name]
				if !ok {
					t.Fatalf("no %s golden recorded for %q (run with GOLDEN_PRINT=1 to generate)", gv.version, gc.name)
				}
				report := gv.run(t, gc)
				if got := math.Float64bits(report.AverageGroupReward); got != want.avgBits {
					t.Errorf("AverageGroupReward bits = %#x (%v), want %#x (%v)",
						got, report.AverageGroupReward, want.avgBits, math.Float64frombits(want.avgBits))
				}
				if got := math.Float64bits(report.Regret); got != want.regretBits {
					t.Errorf("Regret bits = %#x (%v), want %#x (%v)",
						got, report.Regret, want.regretBits, math.Float64frombits(want.regretBits))
				}
				if len(report.Popularity) != len(want.popBits) {
					t.Fatalf("popularity length %d, want %d", len(report.Popularity), len(want.popBits))
				}
				for j, p := range report.Popularity {
					if got := math.Float64bits(p); got != want.popBits[j] {
						t.Errorf("Popularity[%d] bits = %#x (%v), want %#x (%v)",
							j, got, p, want.popBits[j], math.Float64frombits(want.popBits[j]))
					}
				}
			})
		}
	}
}

// TestGoldenPrint regenerates the per-version fixture-table source. It
// only runs when GOLDEN_PRINT=1. Pasting a regenerated table over an
// EXISTING version's fixtures is never legitimate — that version's draws
// are frozen; a deliberate draw-order change mints a new version with its
// own table.
func TestGoldenPrint(t *testing.T) {
	if os.Getenv("GOLDEN_PRINT") == "" {
		t.Skip("set GOLDEN_PRINT=1 to regenerate the golden tables")
	}
	for _, gv := range goldenVersions {
		fmt.Printf("var goldenWants%s = map[string]goldenWant{\n", strings.ToUpper(gv.version[:1])+gv.version[1:])
		for _, gc := range goldenCases() {
			report := gv.run(t, gc)
			fmt.Printf("\t%q: {\n", gc.name)
			fmt.Printf("\t\tavgBits:    %#x,\n", math.Float64bits(report.AverageGroupReward))
			fmt.Printf("\t\tregretBits: %#x,\n", math.Float64bits(report.Regret))
			fmt.Printf("\t\tpopBits:    []uint64{")
			for j, p := range report.Popularity {
				if j > 0 {
					fmt.Print(", ")
				}
				fmt.Printf("%#x", math.Float64bits(p))
			}
			fmt.Println("},")
			fmt.Println("\t},")
		}
		fmt.Println("}")
		fmt.Println()
	}
}

var goldenWantsV1 = map[string]goldenWant{
	"aggregate/m=3": {
		avgBits:    0x3fe8ee38388e3019,
		regretBits: 0x3fbef4a4a1f4e5a0,
		popBits:    []uint64{0x3febf4b9efb97ff1, 0x3fb0ac1f47cf6979, 0x3faf5c2274c92e02},
	},
	"aggregate/m=4/N=1e6": {
		avgBits:    0x3fe26eb311764b1d,
		regretBits: 0x3f989004379d02c0,
		popBits:    []uint64{0x3fe11b28c798efb0, 0x3fc6dfa186d3c827, 0x3fa920bb0bccdbf3, 0x3fce6b8c97d5421d},
	},
	"aggregate/m=8/smallN": {
		avgBits:    0x3fe8340c60e2d10f,
		regretBits: 0x3fc26301afa7eef8,
		popBits:    []uint64{0x3fdb6db6db6db6db, 0x3fc7c57c57c57c58, 0x3f9d41d41d41d41d, 0x3f9d41d41d41d41d, 0x3fcb6db6db6db6db, 0x3fad41d41d41d41d, 0x3fad41d41d41d41d, 0x0},
	},
	"agent/m=3": {
		avgBits:    0x3fe888b617b5970c,
		regretBits: 0x3fc1105ad45cd704,
		popBits:    []uint64{0x3fe920fb49d0e229, 0x3faf693a1c451ab3, 0x3fc3a1c451ab30b0},
	},
	"agent/m=5": {
		avgBits:    0x3fe5b88e5eb02f37,
		regretBits: 0x3fbf0859d74b5318,
		popBits:    []uint64{0x3fe56bc305c8477e, 0x3fc65742c27f3625, 0x3fa2ec8ce0fc5201, 0x3fb3731f03adfef3, 0x3fa613f9b1265fac},
	},
	"agent/m=2/asym": {
		avgBits:    0x3fe41f4c908e1fda,
		regretBits: 0x3fb238ceaec23460,
		popBits:    []uint64{0x3ff0000000000000, 0x0},
	},
	"infinite/m=3": {
		avgBits:    0x3fe9ffc81351467f,
		regretBits: 0x3fb66825cbdc3270,
		popBits:    []uint64{0x3feb211f6e5901be, 0x3fb50e74b1cad362, 0x3fb1e88fdb6d1ea8},
	},
	"infinite/m=6": {
		avgBits:    0x3fea3acf1eb91e93,
		regretBits: 0x3fb48fed709d71d0,
		popBits:    []uint64{0x3fe49389c95a4610, 0x3fc9d1998aade25f, 0x3fb3805ea7301e62, 0x3f9ee3e431420c06, 0x3f985884d9d5da44, 0x3f99c416d76fcb45},
	},
	"infinite/m=2/mu=0.2": {
		avgBits:    0x3fe06ceab79e6ab7,
		regretBits: 0x3fa2caee1fb2ee30,
		popBits:    []uint64{0x3fead4d45ae24642, 0x3fc4acae9476e6fc},
	},
	"network/ring": {
		avgBits:    0x3fe84a2ee05ea9c9,
		regretBits: 0x3fc20a77b1b88c10,
		popBits:    []uint64{0x3fe2222222222223, 0x3fc1111111111111, 0x3fd3333333333333},
	},
	"network/erdos-renyi": {
		avgBits:    0x3fe791228afdadd3,
		regretBits: 0x3fb043b874df5e38,
		popBits:    []uint64{0x3fe3d70a3d70a3d9, 0x3fd851eb851eb853},
	},
	"network/star/m=4": {
		avgBits:    0x3fe7aa157aa157aa,
		regretBits: 0x3fbc48edc48edc48,
		popBits:    []uint64{0x3fb2bb512bb512bc, 0x0, 0x3feda895da895dad, 0x0},
	},
}

var goldenWantsV2 = map[string]goldenWant{
	"aggregate/m=3": {
		avgBits:    0x3fea006734bc4053,
		regretBits: 0x3fb6632cc08463ce,
		popBits:    []uint64{0x3feaa35f78357e4d, 0x3fb5e0878fa3ff4d, 0x3fb5047caeb00e48},
	},
	"aggregate/m=4/N=1e6": {
		avgBits:    0x3fe1a1291aa3a9fc,
		regretBits: 0x3fa920a188f89376,
		popBits:    []uint64{0x3fd7a007ec8867ff, 0x3fc92c664b1fa993, 0x3fcd12389f3c4d96, 0x3fca81513c9338d8},
	},
	"aggregate/m=8/smallN": {
		avgBits:    0x3fe78a96a6d628c6,
		regretBits: 0x3fc508d897da901a,
		popBits:    []uint64{0x3fd560da517f8c02, 0x3fd36db0db6914e6, 0x3f98311dfe523528, 0x3fb3a53f1472d353, 0x3fbd1d01f857719b, 0x3fa5ca02ae015ca0, 0x3fb28bbc767f7a9c, 0x3fa10d19e4fd027b},
	},
	"agent/m=3": {
		avgBits:    0x3fe9ea7887f5c5b9,
		regretBits: 0x3fb712a226b838a3,
		popBits:    []uint64{0x3fe600b5d5782300, 0x3fc4da2393ae63ab, 0x3fc3230516711055},
	},
	"agent/m=5": {
		avgBits:    0x3fe64c0d76f54366,
		regretBits: 0x3fba6c611522b1a2,
		popBits:    []uint64{0x3fe14f48375fbc83, 0x3fc576ab12e0df3e, 0x3fc3950e7589480a, 0x3fb81f5b84870d5a, 0x3fa69ddf5f4d7ffd},
	},
	"agent/m=2/asym": {
		avgBits:    0x3fe52bb4641b9b42,
		regretBits: 0x3fa3ab2024acb233,
		popBits:    []uint64{0x3fee426ec81576b3, 0x3fabd9137ea894c8},
	},
	"infinite/m=3": {
		avgBits:    0x3fe982f65144de3b,
		regretBits: 0x3fba4eb3dc3f7493,
		popBits:    []uint64{0x3fe88c1327693635, 0x3fc38a4fc1396c38, 0x3fb48ac7424375ee},
	},
	"infinite/m=6": {
		avgBits:    0x3feac0355ebf14b0,
		regretBits: 0x3fb064bb706dc0e6,
		popBits:    []uint64{0x3fe7f89bef1dbfe0, 0x3fbee5b362800a6e, 0x3fa81603e65b0e82, 0x3fa141d300cf5f85, 0x3f9f0e3f66e3a053, 0x3f9397c75d0f5dfa},
	},
	"infinite/m=2/mu=0.2": {
		avgBits:    0x3fdf685233de44b5,
		regretBits: 0x3fae5707faa773fb,
		popBits:    []uint64{0x3fe04e714cd08e55, 0x3fdf631d665ee356},
	},
	"network/ring": {
		avgBits:    0x3fe7bb189f1b5a28,
		regretBits: 0x3fc446d0b6c5ca94,
		popBits:    []uint64{0x3fe64b17e4b17e50, 0x3fc40da740da740d, 0x3fc2c5f92c5f92c6},
	},
	"network/erdos-renyi": {
		avgBits:    0x3fe765c59e4bf797,
		regretBits: 0x3fb19e9fda6d1018,
		popBits:    []uint64{0x3fe624dd2f1a9fc1, 0x3fd3b645a1cac083},
	},
	"network/star/m=4": {
		avgBits:    0x3fe4f1c38f1c38f1,
		regretBits: 0x3fc905be905be906,
		popBits:    []uint64{0x3f98f9c18f9c18fa, 0x3fadf881df881df8, 0x3fe5da895da895de, 0x3fcdf881df881dfd},
	},
}
