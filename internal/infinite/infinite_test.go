package infinite

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
		Mu:   0.02,
		Rule: mustRule(t, 0.7),
		Env:  mustEnv(t, 0.9, 0.3),
		Seed: 1,
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "negative mu", mutate: func(c *Config) { c.Mu = -0.1 }},
		{name: "mu above one", mutate: func(c *Config) { c.Mu = 2 }},
		{name: "nil rule", mutate: func(c *Config) { c.Rule = nil }},
		{name: "nil env", mutate: func(c *Config) { c.Env = nil }},
		{name: "short initial P", mutate: func(c *Config) { c.InitialP = []float64{1} }},
		{name: "non-normalized initial P", mutate: func(c *Config) { c.InitialP = []float64{0.5, 0.6} }},
		{name: "negative initial P", mutate: func(c *Config) { c.InitialP = []float64{1.5, -0.5} }},
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

func TestInitialState(t *testing.T) {
	t.Parallel()

	p, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Distribution(); got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("P^0 = %v, want uniform", got)
	}
	if got := p.LogPotential(); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("ln Phi^0 = %v, want ln 2", got)
	}
	if p.T() != 0 {
		t.Errorf("T = %d", p.T())
	}
}

func TestInitialPRespected(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.InitialP = []float64{0.9, 0.1}
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Distribution(); got[0] != 0.9 {
		t.Errorf("P^0 = %v", got)
	}
}

// TestDeterministicUpdate verifies the exact update equation on a
// scripted reward sequence, checked against hand-computed values.
func TestDeterministicUpdate(t *testing.T) {
	t.Parallel()

	script, err := env.NewScripted([][]float64{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	const mu, beta = 0.1, 0.7
	rule, err := agent.NewSymmetric(beta)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Mu: mu, Rule: rule, Env: script, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	// V_1 = (0.9*0.5 + 0.05) * 0.7 = 0.5*0.7 = 0.35
	// V_2 = (0.9*0.5 + 0.05) * 0.3 = 0.15
	// P^1 = (0.7, 0.3).
	got := p.Distribution()
	if math.Abs(got[0]-0.7) > 1e-12 || math.Abs(got[1]-0.3) > 1e-12 {
		t.Errorf("P^1 = %v, want (0.7, 0.3)", got)
	}
	// Phi^1 = Phi^0 * (0.35+0.15) = 2*0.5 = 1.
	if lp := p.LogPotential(); math.Abs(lp) > 1e-12 {
		t.Errorf("ln Phi^1 = %v, want 0", lp)
	}
	// Group reward uses P^0: 0.5*1 + 0.5*0 = 0.5.
	if g := p.GroupReward(); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("group reward = %v, want 0.5", g)
	}
}

func TestStepWithRewardsMatchesScriptedEnv(t *testing.T) {
	t.Parallel()

	rewards := [][]float64{{1, 0}, {0, 1}, {1, 1}, {0, 0}, {1, 0}}
	script, err := env.NewScripted(rewards)
	if err != nil {
		t.Fatal(err)
	}
	c := baseConfig(t)
	c.Env = script
	viaEnv, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	viaRewards, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rewards); i++ {
		if err := viaEnv.Step(); err != nil {
			t.Fatal(err)
		}
		if err := viaRewards.StepWithRewards(rewards[i]); err != nil {
			t.Fatal(err)
		}
		a, b := viaEnv.Distribution(), viaRewards.Distribution()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("step %d: %v vs %v", i, a, b)
			}
		}
	}
	if err := viaRewards.StepWithRewards([]float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Error("wrong reward length accepted")
	}
}

func TestDistributionStaysNormalized(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.Env = mustEnv(t, 0.8, 0.5, 0.2, 0.1)
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		if !stats.IsProbabilityVector(p.Distribution(), 1e-9) {
			t.Fatalf("step %d: P = %v", i, p.Distribution())
		}
	}
}

func TestMinMassHolds(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.Mu = 0.05
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	bound := p.MinMass()
	if bound <= 0 {
		t.Fatalf("MinMass = %v, want positive", bound)
	}
	for i := 0; i < 2000; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		for j, v := range p.Distribution() {
			if v < bound-1e-12 {
				t.Fatalf("step %d: P[%d]=%v below bound %v", i, j, v, bound)
			}
		}
	}
}

func TestConvergesToBestOption(t *testing.T) {
	t.Parallel()

	c := Config{
		Mu:   0.01,
		Rule: mustRule(t, 0.7),
		Env:  mustEnv(t, 0.9, 0.2, 0.2, 0.2),
		Seed: 3,
	}
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0.0
	const window = 300
	for i := 0; i < window; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		sum += p.Distribution()[0]
	}
	if avg := sum / window; avg < 0.8 {
		t.Errorf("average P_1 = %v, want > 0.8", avg)
	}
}

// TestRegretBoundTheorem43 is the core quantitative check: the measured
// regret must be below the paper's 3δ bound for T >= ln m / δ².
func TestRegretBoundTheorem43(t *testing.T) {
	t.Parallel()

	for _, beta := range []float64{0.6, 0.65, 0.7} {
		beta := beta
		t.Run("", func(t *testing.T) {
			t.Parallel()
			delta := math.Log(beta / (1 - beta))
			mu := delta * delta / 6
			if mu > 1 {
				mu = 1
			}
			qualities := []float64{0.9, 0.4, 0.4, 0.4, 0.4}
			horizon := int(math.Ceil(math.Log(float64(len(qualities))) / (delta * delta)))
			if horizon < 1 {
				horizon = 1
			}
			rule, err := agent.NewSymmetric(beta)
			if err != nil {
				t.Fatal(err)
			}
			// Average over replications to estimate the expected regret.
			var regrets stats.Summary
			for rep := 0; rep < 40; rep++ {
				environ, err := env.NewIIDBernoulli(qualities)
				if err != nil {
					t.Fatal(err)
				}
				p, err := New(Config{Mu: mu, Rule: rule, Env: environ, Seed: uint64(100 + rep)})
				if err != nil {
					t.Fatal(err)
				}
				avg, err := Run(p, horizon)
				if err != nil {
					t.Fatal(err)
				}
				regrets.Add(0.9 - avg)
			}
			if got, bound := regrets.Mean(), 3*delta; got > bound {
				t.Errorf("beta=%v: regret %v exceeds 3*delta=%v", beta, got, bound)
			}
		})
	}
}

func TestRawWeightsUnderflow(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.TrackRawWeights = true
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if w := p.RawWeights(); w == nil || w[0] != 1 {
		t.Fatalf("initial raw weights = %v", w)
	}
	// Raw weights shrink by at least beta each step: after 5000 steps
	// they are below 0.7^5000 ~ 10^-774, i.e. exactly zero in float64,
	// while the normalized distribution stays healthy.
	for i := 0; i < 5000; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range p.RawWeights() {
		if w != 0 {
			t.Fatalf("raw weight %v did not underflow", w)
		}
	}
	if !stats.IsProbabilityVector(p.Distribution(), 1e-9) {
		t.Error("normalized distribution corrupted")
	}
	if math.IsInf(p.LogPotential(), 0) || math.IsNaN(p.LogPotential()) {
		t.Errorf("log potential degenerate: %v", p.LogPotential())
	}
}

func TestRawWeightsNilWhenUntracked(t *testing.T) {
	t.Parallel()

	p, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.RawWeights() != nil {
		t.Error("RawWeights non-nil without tracking")
	}
}

func TestAllBadRewardsWithAlphaZero(t *testing.T) {
	t.Parallel()

	// alpha=0 and an all-bad reward step would zero every weight; the
	// process must keep its previous distribution.
	rule, err := agent.NewLinear(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	script, err := env.NewScripted([][]float64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Mu: 0.1, Rule: rule, Env: script, InitialP: []float64{0.8, 0.2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	if got := p.Distribution(); got[0] != 0.8 || got[1] != 0.2 {
		t.Errorf("P after degenerate step = %v, want unchanged", got)
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()

	if _, err := Run(nil, 5); !errors.Is(err, ErrBadConfig) {
		t.Error("nil process accepted")
	}
	p, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, 0); !errors.Is(err, ErrBadConfig) {
		t.Error("zero steps accepted")
	}
}

// TestPotentialInequality checks the key inequality of the Theorem 4.3
// proof on random reward sequences:
//
//	ln Phi^T >= T ln(1−β) + T ln(1−µ) + δ·Σ_t R^t_1.
func TestPotentialInequality(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, betaRaw, muRaw uint8) bool {
		beta := 0.55 + 0.15*float64(betaRaw)/255
		delta := math.Log(beta / (1 - beta))
		mu := 0.2 * float64(muRaw) / 255
		rule, err := agent.NewSymmetric(beta)
		if err != nil {
			return false
		}
		environ, err := env.NewIIDBernoulli([]float64{0.8, 0.5, 0.3})
		if err != nil {
			return false
		}
		rec, err := env.NewRecorder(environ)
		if err != nil {
			return false
		}
		p, err := New(Config{Mu: mu, Rule: rule, Env: rec, Seed: seed})
		if err != nil {
			return false
		}
		const T = 50
		for i := 0; i < T; i++ {
			if err := p.Step(); err != nil {
				return false
			}
		}
		sumR1 := 0.0
		for _, row := range rec.History() {
			sumR1 += row[0]
		}
		lower := float64(T)*math.Log(1-beta) + float64(T)*math.Log(1-mu) + delta*sumR1
		return p.LogPotential() >= lower-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStep(b *testing.B) {
	rule, err := agent.NewSymmetric(0.7)
	if err != nil {
		b.Fatal(err)
	}
	environ, err := env.NewIIDBernoulli([]float64{0.9, 0.5, 0.3, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(Config{Mu: 0.02, Rule: rule, Env: environ, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLogSpace compares the default normalized update with
// the raw-weight tracking variant (the log-space design choice
// documented in the package comment).
func BenchmarkAblationLogSpace(b *testing.B) {
	for _, track := range []bool{false, true} {
		name := "normalized"
		if track {
			name = "with-raw-weights"
		}
		b.Run(name, func(b *testing.B) {
			rule, err := agent.NewSymmetric(0.7)
			if err != nil {
				b.Fatal(err)
			}
			environ, err := env.NewIIDBernoulli([]float64{0.9, 0.5, 0.3, 0.2})
			if err != nil {
				b.Fatal(err)
			}
			p, err := New(Config{Mu: 0.02, Rule: rule, Env: environ, Seed: 1, TrackRawWeights: track})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
