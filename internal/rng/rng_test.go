package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()

	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators with equal seeds diverged: %d vs %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	t.Parallel()

	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()

	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	t.Parallel()

	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	t.Parallel()

	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	t.Parallel()

	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()

	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulli(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		p    float64
		want float64
	}{
		{name: "zero", p: 0, want: 0},
		{name: "one", p: 1, want: 1},
		{name: "clamped low", p: -0.5, want: 0},
		{name: "clamped high", p: 1.5, want: 1},
		{name: "quarter", p: 0.25, want: 0.25},
		{name: "seventy", p: 0.7, want: 0.7},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			r := New(99)
			const n = 100000
			hits := 0
			for i := 0; i < n; i++ {
				if r.Bernoulli(tt.p) {
					hits++
				}
			}
			got := float64(hits) / n
			if math.Abs(got-tt.want) > 0.01 {
				t.Fatalf("Bernoulli(%v) frequency = %v, want ~%v", tt.p, got, tt.want)
			}
		})
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()

	r := New(123)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collide: %d matches", same)
	}
}

func TestStreamReproducible(t *testing.T) {
	t.Parallel()

	r := New(77)
	a := r.Stream(5)
	b := r.Stream(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Stream(5) called twice produced different sequences")
		}
	}
	c := r.Stream(6)
	d := r.Stream(5)
	diff := false
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Stream(5) and Stream(6) produced identical sequences")
	}
}

func TestStreamDoesNotAdvanceParent(t *testing.T) {
	t.Parallel()

	a := New(8)
	b := New(8)
	_ = a.Stream(1)
	_ = a.Stream(2)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Stream advanced the parent generator")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	t.Parallel()

	r := New(2024)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	t.Parallel()

	r := New(31)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()

	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickFloat64InUnit(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, steps uint8) bool {
		r := New(seed)
		for i := 0; i < int(steps); i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
