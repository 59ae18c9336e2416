package coupling

import (
	"errors"
	"math"
	"testing"

	"repro/internal/agent"
)

func baseConfig(t *testing.T) Config {
	t.Helper()
	rule, err := agent.NewSymmetric(0.7)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		N:         100000,
		Mu:        0.05,
		Rule:      rule,
		Qualities: []float64{0.9, 0.4},
		Steps:     10,
		Seed:      1,
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.Steps = 0
	if _, err := Run(c); !errors.Is(err, ErrBadConfig) {
		t.Error("zero steps accepted")
	}
	c = baseConfig(t)
	c.Rule = nil
	if _, err := Run(c); !errors.Is(err, ErrBadConfig) {
		t.Error("nil rule accepted")
	}
	c = baseConfig(t)
	c.Qualities = nil
	if _, err := Run(c); err == nil {
		t.Error("empty qualities accepted")
	}
	c = baseConfig(t)
	c.N = 0
	if _, err := Run(c); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestRunShapes(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deviation) != c.Steps || len(res.Bound) != c.Steps {
		t.Fatalf("lengths %d/%d, want %d", len(res.Deviation), len(res.Bound), c.Steps)
	}
	if len(res.FinitePopularity) != c.Steps || len(res.InfiniteDistribution) != c.Steps {
		t.Fatal("trajectory lengths wrong")
	}
	if res.DeltaDoublePrime <= 0 {
		t.Errorf("delta'' = %v", res.DeltaDoublePrime)
	}
	for t2, b := range res.Bound {
		if want := math.Pow(5, float64(t2+1)) * res.DeltaDoublePrime; math.Abs(b-want) > 1e-9*want {
			t.Errorf("bound[%d] = %v, want %v", t2, b, want)
		}
	}
}

// TestTrajectoriesStayClose is the Lemma 4.5 reproduction at test
// scale: with a large population the early-step deviation is small and
// below the (loose) analytic bound whenever that bound is meaningful.
func TestTrajectoriesStayClose(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.N = 1000000
	c.Steps = 8
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// Early deviations should be far below 1 for N = 10^6.
	for step := 0; step < 4; step++ {
		if res.Deviation[step] > 0.1 {
			t.Errorf("step %d deviation %v too large for N=10^6", step+1, res.Deviation[step])
		}
	}
	// And below the lemma's bound while the bound is < 1.
	for step := range res.Deviation {
		if res.Bound[step] < 1 && res.Deviation[step] > res.Bound[step] {
			t.Errorf("step %d: deviation %v exceeds bound %v", step+1, res.Deviation[step], res.Bound[step])
		}
	}
}

func TestAgentEngineCouplingAgrees(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.N = 2000
	c.UseAgentEngine = true
	c.Steps = 5
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for step, dev := range res.Deviation {
		if math.IsInf(dev, 0) || math.IsNaN(dev) {
			t.Errorf("step %d: degenerate deviation %v", step+1, dev)
		}
	}
}

func TestCouplingDeterministic(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	c.Steps = 6
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Deviation {
		if a.Deviation[i] != b.Deviation[i] {
			t.Fatalf("replays diverged at step %d", i+1)
		}
	}
}
