package population

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/agent"
	"repro/internal/env"
	"repro/internal/stats"
)

func mustRule(t *testing.T, beta float64) agent.Linear {
	t.Helper()
	r, err := agent.NewSymmetric(beta)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustEnv(t *testing.T, qualities ...float64) env.Environment {
	t.Helper()
	e, err := env.NewIIDBernoulli(qualities)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		N:    200,
		Mu:   0.02,
		Rule: mustRule(t, 0.7),
		Env:  mustEnv(t, 0.9, 0.3),
		Seed: 1,
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	good := baseConfig(t)

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero N", mutate: func(c *Config) { c.N = 0 }},
		{name: "negative mu", mutate: func(c *Config) { c.Mu = -0.1 }},
		{name: "mu above one", mutate: func(c *Config) { c.Mu = 1.1 }},
		{name: "nil env", mutate: func(c *Config) { c.Env = nil }},
		{name: "nil rule", mutate: func(c *Config) { c.Rule = nil }},
		{name: "short initial counts", mutate: func(c *Config) { c.InitialCounts = []int{1} }},
		{name: "negative initial count", mutate: func(c *Config) { c.InitialCounts = []int{-1, 2} }},
		{name: "zero initial counts", mutate: func(c *Config) { c.InitialCounts = []int{0, 0} }},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			c := good
			tt.mutate(&c)
			if _, err := NewAgentEngine(c); !errors.Is(err, ErrBadConfig) {
				t.Errorf("AgentEngine: want ErrBadConfig, got %v", err)
			}
			if _, err := NewAggregateEngine(c); !errors.Is(err, ErrBadConfig) {
				t.Errorf("AggregateEngine: want ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestInitialPopularityUniform(t *testing.T) {
	t.Parallel()

	e, err := NewAgentEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	q := e.Popularity()
	if q[0] != 0.5 || q[1] != 0.5 {
		t.Errorf("Q^0 = %v, want uniform", q)
	}
	if e.T() != 0 {
		t.Errorf("T = %d before stepping", e.T())
	}
}

func TestInitialCountsRespected(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.InitialCounts = []int{30, 10}
	for _, build := range []func(Config) (Engine, error){
		func(c Config) (Engine, error) { return NewAgentEngine(c) },
		func(c Config) (Engine, error) { return NewAggregateEngine(c) },
	} {
		e, err := build(c)
		if err != nil {
			t.Fatal(err)
		}
		q := e.Popularity()
		if math.Abs(q[0]-0.75) > 1e-12 || math.Abs(q[1]-0.25) > 1e-12 {
			t.Errorf("Q^0 = %v, want [0.75 0.25]", q)
		}
		counts := e.Counts()
		if counts[0] != 30 || counts[1] != 10 {
			t.Errorf("D^0 = %v", counts)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	t.Parallel()

	for name, build := range map[string]func(Config) (Engine, error){
		"agent":     func(c Config) (Engine, error) { return NewAgentEngine(c) },
		"aggregate": func(c Config) (Engine, error) { return NewAggregateEngine(c) },
	} {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c1 := baseConfig(t)
			c2 := baseConfig(t)
			// Environments are stateless here but constructed fresh to
			// avoid shared RNG use.
			e1, err := build(c1)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := build(c2)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := e1.Step(); err != nil {
					t.Fatal(err)
				}
				if err := e2.Step(); err != nil {
					t.Fatal(err)
				}
				q1, q2 := e1.Popularity(), e2.Popularity()
				for j := range q1 {
					if q1[j] != q2[j] {
						t.Fatalf("step %d: engines with same seed diverged: %v vs %v", i, q1, q2)
					}
				}
			}
		})
	}
}

func TestPopularityStaysProbabilityVector(t *testing.T) {
	t.Parallel()

	for name, build := range map[string]func(Config) (Engine, error){
		"agent":     func(c Config) (Engine, error) { return NewAgentEngine(c) },
		"aggregate": func(c Config) (Engine, error) { return NewAggregateEngine(c) },
	} {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := baseConfig(t)
			c.Env = mustEnv(t, 0.8, 0.5, 0.2)
			e, err := build(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if q := e.Popularity(); !stats.IsProbabilityVector(q, 1e-9) {
					t.Fatalf("step %d: Q = %v not a probability vector", i, q)
				}
			}
		})
	}
}

// TestConvergesToBestOption is the headline sanity check: with a clear
// quality gap the dynamics concentrates most of the population on the
// best option.
func TestConvergesToBestOption(t *testing.T) {
	t.Parallel()

	for name, build := range map[string]func(Config) (Engine, error){
		"agent":     func(c Config) (Engine, error) { return NewAgentEngine(c) },
		"aggregate": func(c Config) (Engine, error) { return NewAggregateEngine(c) },
	} {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := Config{
				N:    2000,
				Mu:   0.02,
				Rule: mustRule(t, 0.7),
				Env:  mustEnv(t, 0.9, 0.2, 0.2),
				Seed: 7,
			}
			e, err := build(c)
			if err != nil {
				t.Fatal(err)
			}
			// Burn in, then average Q_1 over a window.
			for i := 0; i < 100; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			sum := 0.0
			const window = 200
			for i := 0; i < window; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				sum += e.Popularity()[0]
			}
			if avg := sum / window; avg < 0.7 {
				t.Errorf("average Q_1 = %v, want > 0.7", avg)
			}
		})
	}
}

// TestEnginesAgreeInDistribution compares the two engines' mean
// popularity of the best option after a fixed number of steps across
// many independent replications; they implement the same law, so the
// means must agree within Monte-Carlo error.
func TestEnginesAgreeInDistribution(t *testing.T) {
	t.Parallel()

	const reps = 300
	const steps = 15
	var agentMean, aggMean stats.Summary
	for rep := 0; rep < reps; rep++ {
		c := Config{
			N:    100,
			Mu:   0.05,
			Rule: mustRule(t, 0.65),
			Env:  mustEnv(t, 0.85, 0.35),
			Seed: uint64(1000 + rep),
		}
		ae, err := NewAgentEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		c2 := c
		c2.Env = mustEnv(t, 0.85, 0.35)
		c2.Seed = uint64(500000 + rep)
		ge, err := NewAggregateEngine(c2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if err := ae.Step(); err != nil {
				t.Fatal(err)
			}
			if err := ge.Step(); err != nil {
				t.Fatal(err)
			}
		}
		agentMean.Add(ae.Popularity()[0])
		aggMean.Add(ge.Popularity()[0])
	}
	diff := math.Abs(agentMean.Mean() - aggMean.Mean())
	tol := 4 * math.Sqrt(agentMean.Variance()/reps+aggMean.Variance()/reps)
	if diff > tol {
		t.Errorf("engine means differ: agent %v vs aggregate %v (tol %v)",
			agentMean.Mean(), aggMean.Mean(), tol)
	}
}

func TestNoCommitsKeepsPreviousPopularity(t *testing.T) {
	t.Parallel()

	neverRule, err := agent.NewLinear(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := Config{
		N:             50,
		Mu:            0.1,
		Rule:          neverRule,
		Env:           mustEnv(t, 0.9, 0.1),
		InitialCounts: []int{40, 10},
		Seed:          3,
	}
	for name, build := range map[string]func(Config) (Engine, error){
		"agent":     func(c Config) (Engine, error) { return NewAgentEngine(c) },
		"aggregate": func(c Config) (Engine, error) { return NewAggregateEngine(c) },
	} {
		e, err := build(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			q := e.Popularity()
			if math.Abs(q[0]-0.8) > 1e-12 {
				t.Fatalf("%s: popularity changed despite zero commits: %v", name, q)
			}
		}
	}
}

func TestGroupRewardAccounting(t *testing.T) {
	t.Parallel()

	// Scripted rewards make the group reward exactly predictable at
	// t=1: Q^0 = [0.5, 0.5], R^1 = [1, 0] -> group reward 0.5.
	script, err := env.NewScripted([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := Config{
		N:    100,
		Mu:   0.05,
		Rule: mustRule(t, 0.7),
		Env:  script,
		Seed: 5,
	}
	e, err := NewAggregateEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if got := e.GroupReward(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("group reward after step 1 = %v, want 0.5", got)
	}
	if got := e.CumulativeGroupReward(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cumulative = %v, want 0.5", got)
	}
	rewards := e.LastRewards()
	if rewards[0] != 1 || rewards[1] != 0 {
		t.Errorf("LastRewards = %v, want [1 0]", rewards)
	}
}

func TestRunHelper(t *testing.T) {
	t.Parallel()

	if _, err := Run(nil, 10); !errors.Is(err, ErrBadConfig) {
		t.Error("nil engine accepted")
	}
	e, err := NewAggregateEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, 0); !errors.Is(err, ErrBadConfig) {
		t.Error("zero steps accepted")
	}
	avg, err := Run(e, 100)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 0 || avg > 1 {
		t.Errorf("average group reward %v out of [0,1]", avg)
	}
	if e.T() != 100 {
		t.Errorf("T = %d, want 100", e.T())
	}
}

func TestMuOneIsUniformSampling(t *testing.T) {
	t.Parallel()

	// With mu=1 stage one ignores popularity entirely; starting from a
	// degenerate initial distribution, the sampled mass should be close
	// to uniform immediately.
	c := Config{
		N:             100000,
		Mu:            1,
		Rule:          agent.AlwaysAdopt(),
		Env:           mustEnv(t, 0.9, 0.1),
		InitialCounts: []int{99999, 1},
		Seed:          11,
	}
	e, err := NewAggregateEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	q := e.Popularity()
	if math.Abs(q[0]-0.5) > 0.01 {
		t.Errorf("mu=1 popularity after one step = %v, want ~uniform", q)
	}
}

func TestQuickPopularityInvariant(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, nRaw uint8, muRaw, betaRaw uint8) bool {
		n := int(nRaw%100) + 1
		mu := float64(muRaw) / 255
		beta := 0.5 + 0.5*float64(betaRaw)/255
		rule, err := agent.NewSymmetric(beta)
		if err != nil {
			return false
		}
		environ, err := env.NewIIDBernoulli([]float64{0.8, 0.4, 0.1})
		if err != nil {
			return false
		}
		e, err := NewAggregateEngine(Config{N: n, Mu: mu, Rule: rule, Env: environ, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			if err := e.Step(); err != nil {
				return false
			}
			if !stats.IsProbabilityVector(e.Popularity(), 1e-9) {
				return false
			}
			total := 0
			for _, d := range e.Counts() {
				if d < 0 {
					return false
				}
				total += d
			}
			if total > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAgentEngineStep(b *testing.B) {
	rule, err := agent.NewSymmetric(0.7)
	if err != nil {
		b.Fatal(err)
	}
	environ, err := env.NewIIDBernoulli([]float64{0.9, 0.5, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewAgentEngine(Config{N: 10000, Mu: 0.02, Rule: rule, Env: environ, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEngines contrasts the per-agent and aggregate engines
// at the same population size, quantifying the O(N) vs O(m) design
// choice that ablation A01 measures (see the claim index in package
// experiment).
func BenchmarkAblationEngines(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		rule, err := agent.NewSymmetric(0.7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("agent/N="+itoa(n), func(b *testing.B) {
			environ, _ := env.NewIIDBernoulli([]float64{0.9, 0.5, 0.2})
			e, err := NewAgentEngine(Config{N: n, Mu: 0.02, Rule: rule, Env: environ, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("aggregate/N="+itoa(n), func(b *testing.B) {
			environ, _ := env.NewIIDBernoulli([]float64{0.9, 0.5, 0.2})
			e, err := NewAggregateEngine(Config{N: n, Mu: 0.02, Rule: rule, Env: environ, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
