package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestBinomialValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := Binomial(nil, 10, 0.5); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := Binomial(r, -1, 0.5); err == nil {
		t.Error("n=-1: want error")
	}
	if _, err := Binomial(r, 10, -0.1); err == nil {
		t.Error("p<0: want error")
	}
	if _, err := Binomial(r, 10, 1.1); err == nil {
		t.Error("p>1: want error")
	}
	if _, err := Binomial(r, 10, math.NaN()); err == nil {
		t.Error("p=NaN: want error")
	}
}

func TestBinomialDegenerate(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 1000} {
		k, err := Binomial(r, n, 0)
		if err != nil || k != 0 {
			t.Errorf("Bin(%d, 0) = %d, %v; want 0, nil", n, k, err)
		}
		k, err = Binomial(r, n, 1)
		if err != nil || k != n {
			t.Errorf("Bin(%d, 1) = %d, %v; want %d, nil", n, k, err, n)
		}
	}
}

// TestBinomialMomentsAllRegimes checks mean and variance against the
// closed forms in every dispatch regime (direct, geometric, BTRS at the
// boundary, BTRS large, and the p>1/2 symmetry reduction).
func TestBinomialMomentsAllRegimes(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		p      float64
		trials int
	}{
		{"direct", 30, 0.3, 200000},
		{"geometric", 500, 0.004, 200000},
		{"btrs-boundary", 64, 0.4, 200000},
		{"btrs-large", 1000000, 0.25, 20000},
		{"symmetry", 1000, 0.9, 100000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(42)
			var sum, sumSq float64
			for i := 0; i < c.trials; i++ {
				k, err := Binomial(r, c.n, c.p)
				if err != nil {
					t.Fatal(err)
				}
				if k < 0 || k > c.n {
					t.Fatalf("k=%d outside [0,%d]", k, c.n)
				}
				x := float64(k)
				sum += x
				sumSq += x * x
			}
			mean := sum / float64(c.trials)
			variance := sumSq/float64(c.trials) - mean*mean
			wantMean := BinomialMean(c.n, c.p)
			wantVar := BinomialVariance(c.n, c.p)
			se := math.Sqrt(wantVar / float64(c.trials))
			if z := (mean - wantMean) / se; math.Abs(z) > 5 {
				t.Errorf("mean %v vs %v: %v standard errors off", mean, wantMean, z)
			}
			if ratio := variance / wantVar; ratio < 0.93 || ratio > 1.07 {
				t.Errorf("variance ratio %v, want ≈1", ratio)
			}
		})
	}
}

// TestBinomialExactSmall compares the full sampled pmf of Bin(5, 0.3)
// against the closed form — a distribution-level check, not just
// moments.
func TestBinomialExactSmall(t *testing.T) {
	const n, p, trials = 5, 0.3, 300000
	r := rng.New(7)
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		k, err := Binomial(r, n, p)
		if err != nil {
			t.Fatal(err)
		}
		counts[k]++
	}
	choose := []float64{1, 5, 10, 10, 5, 1}
	for k := 0; k <= n; k++ {
		want := choose[k] * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		got := float64(counts[k]) / trials
		if math.Abs(got-want) > 0.005 {
			t.Errorf("P[k=%d] = %v, want %v", k, got, want)
		}
	}
}

func TestMultinomialValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := Multinomial(r, 10, nil); err == nil {
		t.Error("no probs: want error")
	}
	if _, err := Multinomial(r, 10, []float64{0.5, -0.1}); err == nil {
		t.Error("negative prob: want error")
	}
	if _, err := Multinomial(r, 10, []float64{0, 0}); err == nil {
		t.Error("zero-sum probs: want error")
	}
	if _, err := Multinomial(r, -1, []float64{1}); err == nil {
		t.Error("n<0: want error")
	}
}

func TestMultinomialCountsAndMoments(t *testing.T) {
	probs := []float64{0.5, 0.2, 0.2, 0.1, 0}
	const n, trials = 1000, 20000
	r := rng.New(11)
	sums := make([]float64, len(probs))
	for i := 0; i < trials; i++ {
		counts, err := Multinomial(r, n, probs)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for j, c := range counts {
			if c < 0 {
				t.Fatalf("negative count %d", c)
			}
			total += c
			sums[j] += float64(c)
		}
		if total != n {
			t.Fatalf("counts sum to %d, want %d", total, n)
		}
	}
	for j, p := range probs {
		mean := sums[j] / trials
		want := p * n
		tol := 5 * math.Sqrt(math.Max(n*p*(1-p), 1)/trials)
		if math.Abs(mean-want) > tol {
			t.Errorf("bucket %d mean %v, want %v ± %v", j, mean, want, tol)
		}
	}
}

func TestMultinomialZeroN(t *testing.T) {
	counts, err := Multinomial(rng.New(1), 0, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range counts {
		if c != 0 {
			t.Errorf("bucket %d = %d, want 0", j, c)
		}
	}
}

func TestAliasValidation(t *testing.T) {
	if err := (&Alias{}).Rebuild(nil); err == nil {
		t.Error("no weights: want error")
	}
	if err := (&Alias{}).Rebuild([]float64{0, 0}); err == nil {
		t.Error("zero weights: want error")
	}
	if err := (&Alias{}).Rebuild([]float64{1, -1}); err == nil {
		t.Error("negative weight: want error")
	}
}

func TestAliasFrequencies(t *testing.T) {
	weights := []float64{4, 0, 1, 3, 2}
	a := &Alias{}
	if err := a.Rebuild(weights); err != nil {
		t.Fatal(err)
	}
	if len(a.alias) != len(weights) {
		t.Fatalf("table has %d columns, want %d", len(a.alias), len(weights))
	}
	const trials = 500000
	draws := make([]int, trials)
	a.SampleInto(rng.New(13), draws)
	counts := make([]int, len(weights))
	for _, j := range draws {
		counts[j]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	for j, w := range weights {
		got := float64(counts[j]) / trials
		want := w / 10
		if math.Abs(got-want) > 0.005 {
			t.Errorf("category %d frequency %v, want %v", j, got, want)
		}
	}
}
