package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/infinite"
	"repro/internal/stats"
)

func TestNewValidation(t *testing.T) {
	t.Parallel()

	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Qualities: []float64{0.9, 0.5}, Beta: 1.5}); err == nil {
		t.Error("beta > 1 accepted")
	}
	if _, err := New(Config{Qualities: []float64{0.9, 0.5}, Beta: 0.7, Mu: 2}); !errors.Is(err, ErrBadConfig) {
		t.Error("mu > 1 accepted")
	}
	if _, err := New(Config{N: 10, Qualities: []float64{0.9, 0.5}, Beta: 0.7, Engine: EngineKind(99)}); !errors.Is(err, ErrBadConfig) {
		t.Error("unknown engine accepted")
	}
}

func TestDefaults(t *testing.T) {
	t.Parallel()

	g, err := New(Config{N: 100, Qualities: []float64{0.9, 0.5}, Beta: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Alpha defaults to 1 - beta.
	if got := g.Rule().Alpha(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("default alpha = %v, want 0.3", got)
	}
	// Mu defaults to delta^2/6.
	delta := math.Log(0.7 / 0.3)
	if got := g.Mu(); math.Abs(got-delta*delta/6) > 1e-12 {
		t.Errorf("default mu = %v, want %v", got, delta*delta/6)
	}
	if _, ok := g.e.(*infinite.Process); ok {
		t.Error("finite group reported infinite")
	}
}

func TestForcedZeros(t *testing.T) {
	t.Parallel()

	g, err := New(Config{
		N: 100, Qualities: []float64{0.9, 0.5}, Beta: 0.7,
		AlphaIsZero: true, MuIsZero: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rule().Alpha() != 0 {
		t.Errorf("alpha = %v, want forced 0", g.Rule().Alpha())
	}
	if g.Mu() != 0 {
		t.Errorf("mu = %v, want forced 0", g.Mu())
	}
}

func TestInfiniteSelection(t *testing.T) {
	t.Parallel()

	g, err := New(Config{Qualities: []float64{0.9, 0.5}, Beta: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.e.(*infinite.Process); !ok {
		t.Fatal("N=0 did not select infinite process")
	}
	rep, err := g.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 200 || g.T() != 200 {
		t.Errorf("steps = %d / T = %d", rep.Steps, g.T())
	}
	if !stats.IsProbabilityVector(rep.Popularity, 1e-9) {
		t.Errorf("popularity %v", rep.Popularity)
	}
}

func TestFiniteEnginesRun(t *testing.T) {
	t.Parallel()

	for _, engine := range []EngineKind{EngineAggregate, EngineAgent} {
		g, err := New(Config{
			N: 500, Qualities: []float64{0.9, 0.4, 0.4}, Beta: 0.7,
			Engine: engine, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Regret > 0.6 || rep.Regret < -0.2 {
			t.Errorf("engine %d: regret %v implausible", engine, rep.Regret)
		}
		if rep.Popularity[0] < 0.4 {
			t.Errorf("engine %d: best-option share %v after 300 steps", engine, rep.Popularity[0])
		}
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()

	g, err := New(Config{N: 10, Qualities: []float64{0.9, 0.5}, Beta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); !errors.Is(err, ErrBadConfig) {
		t.Error("steps=0 accepted")
	}
}

func TestCustomEnvironment(t *testing.T) {
	t.Parallel()

	environ, err := env.NewSwitching([]float64{0.9, 0.2}, 50)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{N: 100, Beta: 0.7, Environment: environ, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(120); err != nil {
		t.Fatal(err)
	}
}

func TestStepAdvances(t *testing.T) {
	t.Parallel()

	g, err := New(Config{N: 50, Qualities: []float64{0.8, 0.3}, Beta: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if g.T() != 10 {
		t.Errorf("T = %d, want 10", g.T())
	}
}

func TestTheoremBounds(t *testing.T) {
	t.Parallel()

	b, err := TheoremBounds(10, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := math.Log(0.6 / 0.4)
	if math.Abs(b.Delta-wantDelta) > 1e-12 {
		t.Errorf("Delta = %v, want %v", b.Delta, wantDelta)
	}
	if math.Abs(b.InfiniteRegret-3*wantDelta) > 1e-12 {
		t.Errorf("InfiniteRegret = %v", b.InfiniteRegret)
	}
	if math.Abs(b.FiniteRegret-2*b.InfiniteRegret) > 1e-12 {
		t.Errorf("FiniteRegret = %v", b.FiniteRegret)
	}
	if b.MinHorizon != int(math.Ceil(math.Log(10)/(wantDelta*wantDelta))) {
		t.Errorf("MinHorizon = %d", b.MinHorizon)
	}
	if b.MuMax <= 0 || b.HedgeOptimal <= 0 {
		t.Errorf("bounds incomplete: %+v", b)
	}
	if _, err := TheoremBounds(10, 0.5); err == nil {
		t.Error("beta = 1/2 accepted (delta would be 0)")
	}
	// Large beta (delta > 1): still returns the formulas.
	big, err := TheoremBounds(10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if big.InfiniteRegret <= 3 {
		// delta = ln 9 ~ 2.2, so 3*delta > 6.
		t.Errorf("large-beta InfiniteRegret = %v", big.InfiniteRegret)
	}
}

// TestRegretWithinBound is the end-to-end check through the public API.
func TestRegretWithinBound(t *testing.T) {
	t.Parallel()

	const beta = 0.6
	b, err := TheoremBounds(5, beta)
	if err != nil {
		t.Fatal(err)
	}
	var regrets stats.Summary
	for rep := 0; rep < 20; rep++ {
		g, err := New(Config{
			N:         100000,
			Qualities: []float64{0.9, 0.4, 0.4, 0.4, 0.4},
			Beta:      beta,
			Seed:      uint64(100 + rep),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := g.Run(4 * b.MinHorizon)
		if err != nil {
			t.Fatal(err)
		}
		regrets.Add(rep2.Regret)
	}
	if regrets.Mean() > b.FiniteRegret {
		t.Errorf("mean regret %v exceeds Theorem 4.4 bound %v", regrets.Mean(), b.FiniteRegret)
	}
}

// TestConfigValidateMatchesNew checks the contract that Validate
// accepts exactly the configs New accepts — Validate is the cheap,
// non-materializing form used on request-validation paths.
func TestConfigValidateMatchesNew(t *testing.T) {
	t.Parallel()

	ring, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"finite aggregate", Config{N: 100, Qualities: []float64{0.9, 0.5}, Beta: 0.7}},
		{"finite agent", Config{N: 100, Qualities: []float64{0.9, 0.5}, Beta: 0.7, Engine: EngineAgent}},
		{"infinite", Config{Qualities: []float64{0.9, 0.5}, Beta: 0.7}},
		{"network", Config{Qualities: []float64{0.9, 0.5}, Beta: 0.7, Network: ring}},
		{"forced zeros", Config{N: 10, Qualities: []float64{0.9, 0.5}, Beta: 0.7, AlphaIsZero: true, MuIsZero: true}},
		{"custom environment", Config{N: 10, Beta: 0.7, Environment: mustEnv(t, []float64{0.8, 0.2})}},
		{"empty", Config{}},
		{"bad beta", Config{N: 10, Qualities: []float64{0.9, 0.5}, Beta: 1.5}},
		{"bad quality", Config{N: 10, Qualities: []float64{0.9, 1.7}, Beta: 0.7}},
		{"bad mu", Config{N: 10, Qualities: []float64{0.9, 0.5}, Beta: 0.7, Mu: 2}},
		{"negative n", Config{N: -1, Qualities: []float64{0.9, 0.5}, Beta: 0.7}},
		{"bad engine", Config{N: 10, Qualities: []float64{0.9, 0.5}, Beta: 0.7, Engine: EngineKind(99)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errV := c.cfg.Validate()
			_, errN := New(c.cfg)
			if (errV == nil) != (errN == nil) {
				t.Errorf("Validate = %v but New = %v; they must agree", errV, errN)
			}
			if errV != nil && !errors.Is(errV, ErrBadConfig) {
				// Both wrapped substrate errors and ErrBadConfig are
				// fine; just require a non-silent rejection.
				if errV.Error() == "" {
					t.Error("empty validation error")
				}
			}
		})
	}
}

func mustEnv(t *testing.T, qualities []float64) env.Environment {
	t.Helper()
	e, err := env.NewIIDBernoulli(qualities)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
