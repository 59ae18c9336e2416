package agent

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

func TestNewLinearValidation(t *testing.T) {
	t.Parallel()

	bad := []struct{ alpha, beta float64 }{
		{alpha: -0.1, beta: 0.5},
		{alpha: 0.5, beta: 1.1},
		{alpha: 0.8, beta: 0.5},
		{alpha: math.NaN(), beta: 0.5},
	}
	for _, b := range bad {
		if _, err := NewLinear(b.alpha, b.beta); !errors.Is(err, ErrBadRule) {
			t.Errorf("NewLinear(%v,%v): want ErrBadRule", b.alpha, b.beta)
		}
	}
	l, err := NewLinear(0.2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if l.Alpha() != 0.2 || l.Beta() != 0.8 {
		t.Errorf("parameters = (%v,%v)", l.Alpha(), l.Beta())
	}
}

func TestNewSymmetric(t *testing.T) {
	t.Parallel()

	if _, err := NewSymmetric(0.4); !errors.Is(err, ErrBadRule) {
		t.Error("beta < 1/2 accepted")
	}
	if _, err := NewSymmetric(1.1); !errors.Is(err, ErrBadRule) {
		t.Error("beta > 1 accepted")
	}
	l, err := NewSymmetric(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Alpha()-0.3) > 1e-12 || l.Beta() != 0.7 {
		t.Errorf("symmetric parameters = (%v,%v), want (0.3,0.7)", l.Alpha(), l.Beta())
	}
	wantDelta := math.Log(0.7 / 0.3)
	if math.Abs(l.Delta()-wantDelta) > 1e-12 {
		t.Errorf("Delta = %v, want %v", l.Delta(), wantDelta)
	}
}

func TestLinearAdoptFrequencies(t *testing.T) {
	t.Parallel()

	l, err := NewLinear(0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	const n = 100000
	goodHits, badHits := 0, 0
	for i := 0; i < n; i++ {
		if l.Adopt(r, 1) {
			goodHits++
		}
		if l.Adopt(r, 0) {
			badHits++
		}
	}
	if got := float64(goodHits) / n; math.Abs(got-0.75) > 0.01 {
		t.Errorf("good-signal adoption %v, want ~0.75", got)
	}
	if got := float64(badHits) / n; math.Abs(got-0.25) > 0.01 {
		t.Errorf("bad-signal adoption %v, want ~0.25", got)
	}
}

func TestDeltaInfiniteWhenAlphaZero(t *testing.T) {
	t.Parallel()

	l, err := NewLinear(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(l.Delta(), 1) {
		t.Errorf("Delta = %v, want +Inf", l.Delta())
	}
}

func TestAlwaysAdopt(t *testing.T) {
	t.Parallel()

	l := AlwaysAdopt()
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		if !l.Adopt(r, 0) || !l.Adopt(r, 1) {
			t.Fatal("AlwaysAdopt declined")
		}
	}
	if l.Alpha() != 1 || l.Beta() != 1 {
		t.Errorf("parameters = (%v,%v), want (1,1)", l.Alpha(), l.Beta())
	}
}

func TestShockThresholdValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewShockThreshold(nil); !errors.Is(err, ErrBadRule) {
		t.Error("nil shock accepted")
	}
}

// constGap is a reward-gap sampler that always returns the same gap.
type constGap float64

func (g constGap) Sample(*rng.RNG) float64 { return float64(g) }

// TestInducedLinearMatchesAnalytic verifies the Ellison–Fudenberg
// reduction: for a constant reward gap g and logistic shock the induced
// beta is F(g) and alpha is F(−g) = 1 − beta, i.e. exactly the paper's
// symmetric rule.
func TestInducedLinearMatchesAnalytic(t *testing.T) {
	t.Parallel()

	shock, err := dist.NewLogistic(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShockThreshold(shock)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	induced, err := s.InducedLinear(r, constGap(1), 200000)
	if err != nil {
		t.Fatal(err)
	}
	wantBeta := 1 / (1 + math.Exp(-1.0))
	if math.Abs(induced.Beta()-wantBeta) > 0.01 {
		t.Errorf("induced beta %v, want ~%v", induced.Beta(), wantBeta)
	}
	if math.Abs(induced.Alpha()-(1-wantBeta)) > 0.01 {
		t.Errorf("induced alpha %v, want ~%v", induced.Alpha(), 1-wantBeta)
	}
	if induced.Alpha() > induced.Beta() {
		t.Error("induced alpha exceeds beta")
	}
}

func TestInducedLinearValidation(t *testing.T) {
	t.Parallel()

	shock, err := dist.NewNormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShockThreshold(shock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InducedLinear(rng.New(1), nil, 100); !errors.Is(err, ErrBadRule) {
		t.Error("nil gap accepted")
	}
	if _, err := s.InducedLinear(rng.New(1), shock, 0); !errors.Is(err, ErrBadRule) {
		t.Error("zero trials accepted")
	}
}

func TestQuickSymmetricAlphaBeta(t *testing.T) {
	t.Parallel()

	f := func(raw uint16) bool {
		beta := 0.5 + 0.5*float64(raw)/math.MaxUint16
		l, err := NewSymmetric(beta)
		if err != nil {
			return false
		}
		return math.Abs(l.Alpha()+l.Beta()-1) < 1e-12 && l.Alpha() <= l.Beta()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
