package mwu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/env"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNewHedgeValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewHedge(0, 0.1); !errors.Is(err, ErrBadConfig) {
		t.Error("m=0 accepted")
	}
	if _, err := NewHedge(3, 0); !errors.Is(err, ErrBadConfig) {
		t.Error("eps=0 accepted")
	}
	if _, err := NewHedge(3, 1.5); !errors.Is(err, ErrBadConfig) {
		t.Error("eps>1 accepted")
	}
}

func TestOptimalEps(t *testing.T) {
	t.Parallel()

	if _, err := OptimalEps(0, 10); !errors.Is(err, ErrBadConfig) {
		t.Error("m=0 accepted")
	}
	got, err := OptimalEps(10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt(math.Log(10) / 1000); math.Abs(got-want) > 1e-12 {
		t.Errorf("OptimalEps = %v, want %v", got, want)
	}
	clamped, err := OptimalEps(1000, 1)
	if err != nil || clamped != 1 {
		t.Errorf("short-horizon eps = %v, want 1", clamped)
	}
}

func TestHedgeUniformStart(t *testing.T) {
	t.Parallel()

	h, err := NewHedge(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range h.Distribution() {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("initial distribution not uniform: %v", h.Distribution())
		}
	}
	if h.Options() != 4 || h.T() != 0 {
		t.Error("initial metadata wrong")
	}
}

func TestHedgeObserveValidation(t *testing.T) {
	t.Parallel()

	h, err := NewHedge(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Observe([]float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Error("short reward vector accepted")
	}
	if _, err := h.Observe([]float64{1, 2}); !errors.Is(err, ErrBadConfig) {
		t.Error("reward > 1 accepted")
	}
	if _, err := h.AverageRegretAgainst(0.5); !errors.Is(err, ErrBadConfig) {
		t.Error("regret with no steps accepted")
	}
}

func TestHedgeShiftsTowardWinner(t *testing.T) {
	t.Parallel()

	h, err := NewHedge(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gain, err := h.Observe([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gain-0.5) > 1e-12 {
		t.Errorf("first-step gain %v, want 0.5 (uniform prior)", gain)
	}
	p := h.Distribution()
	// w = (1.5, 1) -> p = (0.6, 0.4).
	if math.Abs(p[0]-0.6) > 1e-12 || math.Abs(p[1]-0.4) > 1e-12 {
		t.Errorf("distribution after one win = %v, want (0.6, 0.4)", p)
	}
}

func TestHedgeNumericallyStableLongRun(t *testing.T) {
	t.Parallel()

	h, err := NewHedge(3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		if _, err := h.Observe([]float64{1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	p := h.Distribution()
	if !stats.IsProbabilityVector(p, 1e-9) {
		t.Fatalf("distribution degenerate after long run: %v", p)
	}
	if math.Abs(p[0]-0.5) > 1e-9 || math.Abs(p[2]-0.5) > 1e-9 || p[1] > 1e-12 {
		t.Errorf("long-run distribution = %v, want (0.5, ~0, 0.5)", p)
	}
}

// TestHedgeRegretBound verifies the tuned Hedge meets its
// 2*sqrt(ln m/T) average-regret guarantee on stochastic rewards.
func TestHedgeRegretBound(t *testing.T) {
	t.Parallel()

	const m, horizon = 5, 2000
	qualities := []float64{0.9, 0.6, 0.5, 0.4, 0.3}
	environ, err := env.NewIIDBernoulli(qualities)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHedgeOptimal(m, horizon)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	rewards := make([]float64, m)
	bestRealized := 0.0
	for i := 0; i < horizon; i++ {
		if err := environ.Step(r, rewards); err != nil {
			t.Fatal(err)
		}
		bestRealized += rewards[0]
		if _, err := h.Observe(rewards); err != nil {
			t.Fatal(err)
		}
	}
	regret, err := h.AverageRegretAgainst(bestRealized / horizon)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * math.Sqrt(math.Log(m)/horizon)
	if regret > bound {
		t.Errorf("tuned Hedge regret %v exceeds bound %v", regret, bound)
	}
}

func TestQuickHedgeDistributionValid(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, mRaw, epsRaw uint8, steps uint8) bool {
		m := int(mRaw%8) + 2
		eps := float64(epsRaw%100)/100 + 0.01
		h, err := NewHedge(m, eps)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		rewards := make([]float64, m)
		for i := 0; i < int(steps%60); i++ {
			for j := range rewards {
				if r.Bernoulli(0.5) {
					rewards[j] = 1
				} else {
					rewards[j] = 0
				}
			}
			if _, err := h.Observe(rewards); err != nil {
				return false
			}
		}
		return stats.IsProbabilityVector(h.Distribution(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHedgeObserve(b *testing.B) {
	h, err := NewHedge(50, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	rewards := make([]float64, 50)
	for j := range rewards {
		if j%2 == 0 {
			rewards[j] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Observe(rewards); err != nil {
			b.Fatal(err)
		}
	}
}
