package core

// Tests for Group.Reset — the in-place reinitialization that recycles
// engine buffers across runs (sweep workers reset the same engines
// through BlockGroup.Reset). The contract: a reset group replays a
// freshly constructed group bit for bit, for every engine kind, and
// groups on stateful environments refuse to reset.

import (
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
)

func groupTrajectory(t *testing.T, g *Group, steps int) []float64 {
	t.Helper()
	out := make([]float64, 0, 2*steps)
	for s := 0; s < steps; s++ {
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
		out = append(out, g.GroupReward(), g.Popularity()[0])
	}
	return out
}

func TestGroupResetReplaysFreshGroup(t *testing.T) {
	t.Parallel()
	ring, err := graph.Ring(40)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"aggregate", Config{N: 2000, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}},
		{"agent", Config{N: 300, Engine: EngineAgent, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7}},
		{"infinite", Config{Qualities: []float64{0.8, 0.6}, Beta: 0.65}},
		{"network", Config{Network: ring, Qualities: []float64{0.9, 0.5}, Beta: 0.7}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const steps = 120
			cfg := tc.cfg
			cfg.Seed = 5
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			groupTrajectory(t, g, steps)

			// Reset to a different seed must reproduce a fresh group
			// with that seed, bit for bit.
			if err := g.Reset(42); err != nil {
				t.Fatal(err)
			}
			if g.T() != 0 {
				t.Fatalf("reset group reports T=%d", g.T())
			}
			cfg.Seed = 42
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := groupTrajectory(t, g, steps)
			want := groupTrajectory(t, fresh, steps)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: reset group %v, fresh group %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestGroupResetRejectsStatefulEnvironment(t *testing.T) {
	t.Parallel()
	drift, err := env.NewDrifting([]float64{0.8, 0.4}, 0.01, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{N: 100, Environment: drift, Beta: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Reset(4); err == nil {
		t.Fatal("Reset accepted a stateful (Drifting) environment")
	}
}
