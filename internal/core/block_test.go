package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func blockBaseConfig() Config {
	return Config{
		N:         400,
		Qualities: []float64{0.9, 0.5, 0.5},
		Beta:      0.7,
		Seed:      21,
	}
}

// runBlock steps b, a block of lanes lanes, and returns each lane's
// final popularity and cumulative group reward.
func runBlock(t *testing.T, b *BlockGroup, lanes, steps int) (pops [][]float64, cums []float64) {
	t.Helper()
	for s := 0; s < steps; s++ {
		if err := b.StepBlock(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < lanes; k++ {
		pops = append(pops, b.AppendPopularity(k, nil))
		cums = append(cums, b.CumulativeGroupReward(k))
	}
	return pops, cums
}

func assertLanesEqual(t *testing.T, label string, wantPops, gotPops [][]float64, wantCums, gotCums []float64, off int) {
	t.Helper()
	for k := range gotPops {
		if math.Float64bits(wantCums[off+k]) != math.Float64bits(gotCums[k]) {
			t.Fatalf("%s: lane %d cum reward %v, want %v", label, off+k, gotCums[k], wantCums[off+k])
		}
		for j := range gotPops[k] {
			if math.Float64bits(wantPops[off+k][j]) != math.Float64bits(gotPops[k][j]) {
				t.Fatalf("%s: lane %d popularity[%d] %v, want %v", label, off+k, j, gotPops[k][j], wantPops[off+k][j])
			}
		}
	}
}

// TestBlockGroupChunkInvariance covers all four engine paths at the
// core seam: a 5-lane block must equal its 4+1 split and each
// single-lane block, bit for bit.
func TestBlockGroupChunkInvariance(t *testing.T) {
	t.Parallel()
	ring, err := graph.Ring(40)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"aggregate", func() Config { c := blockBaseConfig(); c.N = 30_000; return c }()},
		{"agent", func() Config { c := blockBaseConfig(); c.Engine = EngineAgent; return c }()},
		{"infinite", func() Config { c := blockBaseConfig(); c.N = 0; return c }()},
		{"network", func() Config { c := blockBaseConfig(); c.Network = ring; return c }()},
	}
	const steps, lanes = 40, 5
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			whole, err := NewBlock(tc.cfg, 0, lanes)
			if err != nil {
				t.Fatal(err)
			}
			wantPops, wantCums := runBlock(t, whole, lanes, steps)
			for _, chunk := range []struct{ lane0, width int }{{0, 4}, {4, 1}, {2, 1}} {
				b, err := NewBlock(tc.cfg, chunk.lane0, chunk.width)
				if err != nil {
					t.Fatal(err)
				}
				gotPops, gotCums := runBlock(t, b, chunk.width, steps)
				assertLanesEqual(t, tc.name, wantPops, gotPops, wantCums, gotCums, chunk.lane0)
			}
		})
	}
}

// TestBlockGroupDiffersFromV1 pins that v2 is a genuinely different
// draw order: lane 0 of a block never reproduces the v1 trajectory of
// the same seed, for any engine. (This is what justifies draw_order
// being part of the cache key.)
func TestBlockGroupDiffersFromV1(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"aggregate", func() Config { c := blockBaseConfig(); c.N = 30_000; return c }()},
		{"agent", func() Config { c := blockBaseConfig(); c.Engine = EngineAgent; return c }()},
		{"infinite", func() Config { c := blockBaseConfig(); c.N = 0; return c }()},
	}
	const steps = 60
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			v1, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := v1.Run(steps)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBlock(tc.cfg, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < steps; s++ {
				if err := b.StepBlock(); err != nil {
					t.Fatal(err)
				}
			}
			v2avg := b.CumulativeGroupReward(0) / float64(steps)
			if math.Float64bits(v2avg) == math.Float64bits(rep.AverageGroupReward) {
				t.Fatalf("%s: v2 lane 0 reproduced the v1 trajectory (avg %v)", tc.name, v2avg)
			}
		})
	}
}

// TestTemplateNewBlockMatchesNewBlock pins the template path: a block
// from a resolved template equals one from core.NewBlock.
func TestTemplateNewBlockMatchesNewBlock(t *testing.T) {
	t.Parallel()
	cfg := blockBaseConfig()
	tmpl, err := NewTemplate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps, lanes = 30, 5
	for _, engCase := range []struct {
		n      int
		engine EngineKind
	}{{25_000, EngineAggregate}, {400, EngineAgent}, {0, EngineAggregate}} {
		direct := cfg
		direct.N = engCase.n
		direct.Engine = engCase.engine
		want, err := NewBlock(direct, 0, lanes)
		if err != nil {
			t.Fatal(err)
		}
		wantPops, wantCums := runBlock(t, want, lanes, steps)
		got, err := tmpl.NewBlock(engCase.n, engCase.engine, cfg.Seed, 0, lanes)
		if err != nil {
			t.Fatal(err)
		}
		gotPops, gotCums := runBlock(t, got, lanes, steps)
		assertLanesEqual(t, "template block", wantPops, gotPops, wantCums, gotCums, 0)
	}
}

// TestBlockGroupResetReplays covers Reset through the core seam,
// including the network fallback path.
func TestBlockGroupResetReplays(t *testing.T) {
	t.Parallel()
	ring, err := graph.Ring(30)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"agent", func() Config { c := blockBaseConfig(); c.Engine = EngineAgent; return c }()},
		{"network", func() Config { c := blockBaseConfig(); c.Network = ring; return c }()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const steps, lane0, lanes = 25, 2, 4
			b, err := NewBlock(tc.cfg, lane0, lanes)
			if err != nil {
				t.Fatal(err)
			}
			wantPops, wantCums := runBlock(t, b, lanes, steps)
			if err := b.Reset(tc.cfg.Seed, lane0); err != nil {
				t.Fatal(err)
			}
			if b.T() != 0 {
				t.Fatal("Reset did not zero the step counter")
			}
			gotPops, gotCums := runBlock(t, b, lanes, steps)
			assertLanesEqual(t, tc.name+" reset", wantPops, gotPops, wantCums, gotCums, 0)
		})
	}
}

// TestBlockV1ReplaysGroups pins the v1 block every v1 sweep task
// steps: lane k of Template.NewBlockV1 at lane0 replays Template.Group
// at rng.SeedFor(seed, lane0+k) bit for bit — group reward at every
// step, popularity, and the cumulative reward against a running sum of
// the group's rewards — for every engine, and again after Reset to
// another seed and lane0.
func TestBlockV1ReplaysGroups(t *testing.T) {
	t.Parallel()
	ring, err := graph.Ring(40)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"aggregate", func() Config { c := blockBaseConfig(); c.N = 30_000; return c }()},
		{"agent", func() Config { c := blockBaseConfig(); c.Engine = EngineAgent; return c }()},
		{"infinite", func() Config { c := blockBaseConfig(); c.N = 0; return c }()},
		{"network", func() Config { c := blockBaseConfig(); c.Network = ring; return c }()},
	}
	const steps, lane0, lanes = 40, 2, 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tmpl, err := NewTemplate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tmpl.NewBlockV1(tc.cfg.N, tc.cfg.Engine, tc.cfg.Seed, lane0, lanes)
			if err != nil {
				t.Fatal(err)
			}
			assertLanesReplayGroups(t, tmpl, tc.cfg, b, tc.cfg.Seed, lane0, steps)
			const seed2, lane02 = 77, 5
			if err := b.Reset(seed2, lane02); err != nil {
				t.Fatal(err)
			}
			if b.T() != 0 {
				t.Fatal("Reset did not zero the step counter")
			}
			assertLanesReplayGroups(t, tmpl, tc.cfg, b, seed2, lane02, steps)
		})
	}
}

// assertLanesReplayGroups steps b, a Template.NewBlockV1 block, and one
// fresh v1 group per lane, seeded rng.SeedFor(seed, lane0+k), and fails
// on the first bit that differs.
func assertLanesReplayGroups(t *testing.T, tmpl *Template, cfg Config, b *BlockGroup, seed uint64, lane0, steps int) {
	t.Helper()
	groups := make([]*Group, len(b.e.(*laneGroups).lanes))
	for k := range groups {
		g, err := tmpl.Group(cfg.N, cfg.Engine, rng.SeedFor(seed, lane0+k))
		if err != nil {
			t.Fatal(err)
		}
		groups[k] = g
	}
	sums := make([]float64, len(groups))
	for s := 1; s <= steps; s++ {
		if err := b.StepBlock(); err != nil {
			t.Fatal(err)
		}
		for k, g := range groups {
			if err := g.Step(); err != nil {
				t.Fatal(err)
			}
			sums[k] += g.GroupReward()
			if got, want := b.GroupReward(k), g.GroupReward(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lane %d step %d: group reward %v, want %v", k, s, got, want)
			}
			got, want := b.AppendPopularity(k, nil), g.Popularity()
			if len(got) != len(want) {
				t.Fatalf("lane %d step %d: %d options, want %d", k, s, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("lane %d step %d: popularity[%d] %v, want %v", k, s, j, got[j], want[j])
				}
			}
		}
	}
	for k := range groups {
		if got := b.CumulativeGroupReward(k); math.Float64bits(got) != math.Float64bits(sums[k]) {
			t.Fatalf("lane %d: cumulative reward %v, want the running sum %v", k, got, sums[k])
		}
	}
}

func TestNewBlockRejections(t *testing.T) {
	t.Parallel()
	cfg := blockBaseConfig()
	if _, err := NewBlock(cfg, -1, 2); err == nil {
		t.Fatal("expected error for negative lane0")
	}
	if _, err := NewBlock(cfg, 0, 0); err == nil {
		t.Fatal("expected error for zero lanes")
	}
	custom := cfg
	custom.Environment = mustEnv(t, cfg.Qualities)
	if _, err := NewBlock(custom, 0, 2); err == nil {
		t.Fatal("expected error for custom environment")
	}
	bad := cfg
	bad.Engine = EngineKind(99)
	if _, err := NewBlock(bad, 0, 2); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}
