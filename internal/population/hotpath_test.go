package population

// Tests for the allocation-free hot-path refit: the devirtualized
// stage-2 adoption must match the interface-dispatched path draw for
// draw, and Reset must replay a freshly constructed engine bit for
// bit.

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/rng"
)

// opaqueRule wraps an agent.Linear behind a distinct type so the
// engine cannot detect it as Linear and must take the interface path.
type opaqueRule struct{ lin agent.Linear }

func (o opaqueRule) Adopt(r *rng.RNG, signal float64) bool { return o.lin.Adopt(r, signal) }
func (o opaqueRule) Alpha() float64                        { return o.lin.Alpha() }
func (o opaqueRule) Beta() float64                         { return o.lin.Beta() }

// TestDevirtualizedAdoptionMatchesInterfacePath runs the same seeded
// dynamics once with the shared agent.Linear rule (devirtualized,
// bulk-kernel stage 2) and once with the rule hidden behind an opaque
// wrapper (per-agent interface dispatch). The two must walk identical
// trajectories: the devirtualized path is an implementation detail,
// not a semantic fork.
func TestDevirtualizedAdoptionMatchesInterfacePath(t *testing.T) {
	t.Parallel()
	for _, cfg := range []struct {
		name        string
		alpha, beta float64
	}{
		{"interior", 0.3, 0.7},
		{"alpha-zero", 0, 0.7}, // boundary: bad signals consume no draw
		{"beta-one", 0.2, 1},   // boundary: good signals consume no draw
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			lin, err := agent.NewLinear(cfg.alpha, cfg.beta)
			if err != nil {
				t.Fatal(err)
			}
			qualities := []float64{0.9, 0.5, 0.5}
			const n, seed, steps = 300, 17, 200
			devirt, err := NewAgentEngine(Config{
				N: n, Mu: 0.1, Rule: lin, Env: mustEnv(t, qualities...), Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !devirt.devirt {
				t.Fatal("shared Linear rule did not take the devirtualized path")
			}
			iface, err := NewAgentEngine(Config{
				N: n, Mu: 0.1, Rule: opaqueRule{lin: lin}, Env: mustEnv(t, qualities...), Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if iface.devirt {
				t.Fatal("opaque rule unexpectedly devirtualized")
			}
			for s := 0; s < steps; s++ {
				if err := devirt.Step(); err != nil {
					t.Fatal(err)
				}
				if err := iface.Step(); err != nil {
					t.Fatal(err)
				}
				q1, q2 := devirt.Popularity(), iface.Popularity()
				for j := range q1 {
					if q1[j] != q2[j] {
						t.Fatalf("step %d: popularity[%d] %v (devirt) != %v (interface)", s, j, q1[j], q2[j])
					}
				}
				if devirt.GroupReward() != iface.GroupReward() {
					t.Fatalf("step %d: group reward diverged", s)
				}
			}
		})
	}
}

// TestEngineResetReplaysFreshEngine pins the Reset contract for both
// finite engines: a reset engine must replay a freshly constructed
// engine bit for bit, including across a seed change.
func TestEngineResetReplaysFreshEngine(t *testing.T) {
	t.Parallel()
	rule, err := agent.NewSymmetric(0.7)
	if err != nil {
		t.Fatal(err)
	}
	qualities := []float64{0.9, 0.6, 0.5, 0.4}
	build := func(t *testing.T, kind string, seed uint64) Engine {
		t.Helper()
		cfg := Config{N: 500, Mu: 0.1, Rule: rule, Env: mustEnv(t, qualities...), Seed: seed}
		var e Engine
		var err error
		if kind == "agent" {
			e, err = NewAgentEngine(cfg)
		} else {
			e, err = NewAggregateEngine(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	trajectory := func(t *testing.T, e Engine, steps int) []float64 {
		t.Helper()
		out := make([]float64, 0, steps)
		for s := 0; s < steps; s++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			out = append(out, e.GroupReward(), e.Popularity()[0], e.Participation())
		}
		return out
	}
	for _, kind := range []string{"agent", "aggregate"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			const steps = 150
			e := build(t, kind, 1)
			first := trajectory(t, e, steps)

			// Reset to the same seed: must replay itself.
			e.Reset(1)
			if e.T() != 0 || e.CumulativeGroupReward() != 0 {
				t.Fatal("Reset did not clear step and reward state")
			}
			replay := trajectory(t, e, steps)
			for i := range first {
				if first[i] != replay[i] {
					t.Fatalf("self-replay diverged at sample %d: %v != %v", i, replay[i], first[i])
				}
			}

			// Reset to a different seed: must match a fresh engine.
			e.Reset(99)
			fresh := build(t, kind, 99)
			got := trajectory(t, e, steps)
			want := trajectory(t, fresh, steps)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cross-seed replay diverged at sample %d: %v != %v", i, got[i], want[i])
				}
			}
		})
	}
}
