package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSamplerValidation(t *testing.T) {
	if _, err := NewNormal(0, 0); err == nil {
		t.Error("NewNormal(0,0): want error")
	}
	if _, err := NewNormal(math.NaN(), 1); err == nil {
		t.Error("NewNormal(NaN,1): want error")
	}
	if _, err := NewLogistic(0, -1); err == nil {
		t.Error("NewLogistic(0,-1): want error")
	}
}

func moments(t *testing.T, s Sampler, n int, seed uint64) (mean, variance float64) {
	t.Helper()
	r := rng.New(seed)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestNormalMoments(t *testing.T) {
	s, err := NewNormal(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := moments(t, s, 200000, 1)
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("mean %v, want ≈2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("variance %v, want ≈9", variance)
	}
}

func TestLogisticMoments(t *testing.T) {
	s, err := NewLogistic(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := moments(t, s, 200000, 2)
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("mean %v, want ≈1", mean)
	}
	want := 0.25 * math.Pi * math.Pi / 3 // s²π²/3
	if math.Abs(variance-want) > 0.1 {
		t.Errorf("variance %v, want ≈%v", variance, want)
	}
}

func TestBetaMomentsAndSupport(t *testing.T) {
	cases := []Beta{{A: 1, B: 1}, {A: 2, B: 5}, {A: 0.5, B: 0.5}, {A: 30, B: 3}}
	for _, b := range cases {
		r := rng.New(5)
		var sum float64
		n := 100000
		for i := 0; i < n; i++ {
			x := b.Sample(r)
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("Beta{%v,%v} sample %v outside [0,1]", b.A, b.B, x)
			}
			sum += x
		}
		mean := sum / float64(n)
		want := b.A / (b.A + b.B)
		if math.Abs(mean-want) > 0.01 {
			t.Errorf("Beta{%v,%v} mean %v, want ≈%v", b.A, b.B, mean, want)
		}
	}
}

func TestBetaPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Beta{0,1}.Sample: want panic")
		}
	}()
	Beta{A: 0, B: 1}.Sample(rng.New(1))
}
