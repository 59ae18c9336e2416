package netpop

import (
	"errors"
	"math"
	"testing"

	"repro/internal/agent"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

func mustGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Complete(100)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	rule, err := agent.NewSymmetric(0.7)
	if err != nil {
		t.Fatal(err)
	}
	environ, err := env.NewIIDBernoulli([]float64{0.9, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph: mustGraph(t),
		Mu:    0.02,
		Rule:  rule,
		Env:   environ,
		Seed:  1,
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil graph", mutate: func(c *Config) { c.Graph = nil }},
		{name: "bad mu", mutate: func(c *Config) { c.Mu = -1 }},
		{name: "nil rule", mutate: func(c *Config) { c.Rule = nil }},
		{name: "nil env", mutate: func(c *Config) { c.Env = nil }},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			c := baseConfig(t)
			tt.mutate(&c)
			if _, err := New(c); !errors.Is(err, ErrBadConfig) {
				t.Errorf("want ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestInitialStateUniformish(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	g, err := graph.Complete(10000)
	if err != nil {
		t.Fatal(err)
	}
	c.Graph = g
	d, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	fr := d.Fractions()
	if !stats.IsProbabilityVector(fr, 1e-9) {
		t.Fatalf("fractions %v not a probability vector", fr)
	}
	if math.Abs(fr[0]-0.5) > 0.05 {
		t.Errorf("initial fractions %v far from uniform", fr)
	}
	if d.N() != 10000 || d.T() != 0 {
		t.Error("metadata wrong")
	}
}

func TestFractionsTrackChoices(t *testing.T) {
	t.Parallel()

	d, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, 2)
		for node := 0; node < d.N(); node++ {
			counts[d.choice[node]]++
		}
		fr := d.Fractions()
		for j := range counts {
			if math.Abs(counts[j]/float64(d.N())-fr[j]) > 1e-12 {
				t.Fatalf("fractions inconsistent with choices at step %d", i)
			}
		}
	}
}

func TestConvergesOnCompleteGraph(t *testing.T) {
	t.Parallel()

	d, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0.0
	const window = 200
	for i := 0; i < window; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		sum += d.Fractions()[0]
	}
	if avg := sum / window; avg < 0.7 {
		t.Errorf("average best-option share %v, want > 0.7", avg)
	}
}

func TestConvergesOnSparseGraphs(t *testing.T) {
	t.Parallel()

	builders := map[string]func() (*graph.Graph, error){
		"ring":  func() (*graph.Graph, error) { return graph.Ring(100) },
		"star":  func() (*graph.Graph, error) { return graph.Star(100) },
		"torus": func() (*graph.Graph, error) { return graph.Torus(10, 10) },
	}
	for name, mk := range builders {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			c := baseConfig(t)
			c.Graph = g
			c.Seed = 11
			d, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			}
			sum := 0.0
			const window = 300
			for i := 0; i < window; i++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
				sum += d.Fractions()[0]
			}
			if avg := sum / window; avg < 0.6 {
				t.Errorf("%s: average best-option share %v, want > 0.6", name, avg)
			}
		})
	}
}

func TestGroupRewardBounds(t *testing.T) {
	t.Parallel()

	d, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Run(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 0 || avg > 1 {
		t.Errorf("average group reward %v out of [0,1]", avg)
	}
	if d.T() != 100 {
		t.Errorf("T = %d", d.T())
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()

	if _, err := Run(nil, 5); !errors.Is(err, ErrBadConfig) {
		t.Error("nil dynamics accepted")
	}
	d, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, 0); !errors.Is(err, ErrBadConfig) {
		t.Error("zero steps accepted")
	}
}

func TestHittingTime(t *testing.T) {
	t.Parallel()

	d, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := HittingTime(d, 5, 0.5, 100); !errors.Is(err, ErrBadConfig) {
		t.Error("bad best index accepted")
	}
	if _, _, err := HittingTime(d, 0, 0, 100); !errors.Is(err, ErrBadConfig) {
		t.Error("target=0 accepted")
	}
	steps, reached, err := HittingTime(d, 0, 0.8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Errorf("best option never reached 80%% in %d steps", steps)
	}
}

// opaqueRule wraps an agent.Linear behind a distinct type so New
// cannot detect it as Linear and must take the interface path.
type opaqueRule struct{ lin agent.Linear }

func (o opaqueRule) Adopt(r *rng.RNG, signal float64) bool { return o.lin.Adopt(r, signal) }
func (o opaqueRule) Alpha() float64                        { return o.lin.Alpha() }
func (o opaqueRule) Beta() float64                         { return o.lin.Beta() }

// TestDevirtualizedAdoptionMatchesInterfacePath runs the same seeded
// network dynamics once with an agent.Linear rule (devirtualized stage
// 2) and once with that rule behind an opaque wrapper (per-node
// interface dispatch), on a ring and on a random graph. The two must
// walk identical trajectories: the devirtualized path is an
// implementation detail, not a semantic fork.
func TestDevirtualizedAdoptionMatchesInterfacePath(t *testing.T) {
	t.Parallel()
	ring, err := graph.Ring(200)
	if err != nil {
		t.Fatal(err)
	}
	random, err := graph.ErdosRenyi(200, 0.03, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name  string
		graph *graph.Graph
	}{{"ring", ring}, {"erdos-renyi", random}} {
		for _, p := range []struct {
			name        string
			alpha, beta float64
		}{
			{"interior", 0.3, 0.7},
			{"alpha-zero", 0, 0.7}, // boundary: bad signals consume no draw
			{"beta-one", 0.2, 1},   // boundary: good signals consume no draw
		} {
			t.Run(g.name+"/"+p.name, func(t *testing.T) {
				t.Parallel()
				lin, err := agent.NewLinear(p.alpha, p.beta)
				if err != nil {
					t.Fatal(err)
				}
				build := func(rule agent.Rule) *Dynamics {
					environ, err := env.NewIIDBernoulli([]float64{0.9, 0.5, 0.5})
					if err != nil {
						t.Fatal(err)
					}
					d, err := New(Config{Graph: g.graph, Mu: 0.05, Rule: rule, Env: environ, Seed: 23})
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				devirt, iface := build(lin), build(opaqueRule{lin: lin})
				if !devirt.devirt {
					t.Fatal("Linear rule did not take the devirtualized path")
				}
				if iface.devirt {
					t.Fatal("opaque rule unexpectedly devirtualized")
				}
				for s := 0; s < 300; s++ {
					if err := devirt.Step(); err != nil {
						t.Fatal(err)
					}
					if err := iface.Step(); err != nil {
						t.Fatal(err)
					}
					f1, f2 := devirt.Fractions(), iface.Fractions()
					for j := range f1 {
						if math.Float64bits(f1[j]) != math.Float64bits(f2[j]) {
							t.Fatalf("step %d: fraction[%d] %v (devirt) != %v (interface)", s, j, f1[j], f2[j])
						}
					}
					if math.Float64bits(devirt.GroupReward()) != math.Float64bits(iface.GroupReward()) {
						t.Fatalf("step %d: group reward %v (devirt) != %v (interface)", s, devirt.GroupReward(), iface.GroupReward())
					}
				}
			})
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	t.Parallel()

	a, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		fa, fb := a.Fractions(), b.Fractions()
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("same-seed runs diverged at step %d", i)
			}
		}
	}
}

func BenchmarkStepRing(b *testing.B) {
	g, err := graph.Ring(10000)
	if err != nil {
		b.Fatal(err)
	}
	rule, err := agent.NewSymmetric(0.7)
	if err != nil {
		b.Fatal(err)
	}
	environ, err := env.NewIIDBernoulli([]float64{0.9, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(Config{Graph: g, Mu: 0.02, Rule: rule, Env: environ, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
