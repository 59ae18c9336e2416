package dist

// Tests for the sampler-object hot path: the reusable MultinomialSampler
// and Alias.Rebuild must consume exactly the RNG draw sequence of their
// allocate-per-call counterparts (the engines' bit-identity contract
// rides on it), BinomialUnchecked must match Binomial, and conditional-
// decomposition leftovers must never resurrect a zero-probability
// bucket.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestBinomialUncheckedMatchesBinomial(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{0, 0.3}, {5, 0}, {5, 1}, {20, 0.2}, {20, 0.8}, // degenerate + direct loop
		{1000, 0.4}, {1000, 0.9}, // BTRS, both symmetry branches
		{100000, 0.0001}, // geometric skipping
		{31, 0.05},       // just past the direct-loop bound
	}
	for _, c := range cases {
		r1 := rng.New(7)
		r2 := rng.New(7)
		for i := 0; i < 200; i++ {
			want, err := Binomial(r1, c.n, c.p)
			if err != nil {
				t.Fatalf("Binomial(%d, %v): %v", c.n, c.p, err)
			}
			got := BinomialUnchecked(r2, c.n, c.p)
			if got != want {
				t.Fatalf("BinomialUnchecked(%d, %v) draw %d = %d, want %d", c.n, c.p, i, got, want)
			}
		}
		// Same draws consumed: the streams must still agree.
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("(%d, %v): checked and unchecked paths consumed different draw counts", c.n, c.p)
		}
	}
}

// TestThinningMatchesBinomialUnchecked checks the precomputed stage-2
// draw against the per-call path in every regime — direct loop (n ≤ 30),
// geometric skipping, BTRS, both sides of the symmetry reduction and
// the exact clamps at p ∈ {0, 1} — draw for draw: the same k from the
// same uniforms, so the generators stay in step.
func TestThinningMatchesBinomialUnchecked(t *testing.T) {
	for _, n := range []int{0, 7, 29, 31, 250, 100_000} {
		for _, p := range []float64{0, 0.05, 0.3, 0.5, 0.7, 0.95, 1} {
			thin := NewThinning(p)
			r1, r2 := rng.New(13), rng.New(13)
			for i := 0; i < 300; i++ {
				want := BinomialUnchecked(r1, n, p)
				if got := thin.Draw(r2, n); got != want {
					t.Fatalf("Thinning(%v).Draw(n=%d) draw %d = %d, want %d", p, n, i, got, want)
				}
				if *r1 != *r2 {
					t.Fatalf("Thinning(%v).Draw(n=%d) draw %d left the generator elsewhere", p, n, i)
				}
			}
		}
	}
}

func TestMultinomialSamplerMatchesMultinomial(t *testing.T) {
	probsSets := [][]float64{
		{0.9, 0.05, 0.05},
		{0.25, 0.25, 0.25, 0.25},
		{1, 2, 3, 4, 5, 6, 7, 8}, // unnormalized weights
		{0.5, 0, 0.5},            // interior zero
	}
	for _, probs := range probsSets {
		s, err := NewMultinomialSampler(probs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(probs))
		r1 := rng.New(99)
		r2 := rng.New(99)
		for n := 0; n < 4000; n += 117 {
			want, err := Multinomial(r1, n, probs)
			if err != nil {
				t.Fatal(err)
			}
			s.SampleInto(r2, n, probs, out)
			for j := range want {
				if out[j] != want[j] {
					t.Fatalf("probs=%v n=%d: SampleInto[%d]=%d, want %d", probs, n, j, out[j], want[j])
				}
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("probs=%v: sampler consumed a different draw count", probs)
		}
	}
}

func TestMultinomialSamplerValidation(t *testing.T) {
	if _, err := NewMultinomialSampler(nil); err == nil {
		t.Fatal("empty prototype accepted")
	}
	if _, err := NewMultinomialSampler([]float64{0.5, math.NaN()}); err == nil {
		t.Fatal("NaN prototype accepted")
	}
	if _, err := NewMultinomialSampler([]float64{0, 0}); err == nil {
		t.Fatal("zero-sum prototype accepted")
	}
	s, err := NewMultinomialSampler([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	s.SampleInto(rng.New(1), 10, []float64{0.5, 0.5, 0.5}, make([]int, 3))
}

// TestMultinomialTrailingZeroBucket is the regression test for the
// leftover-dump bug: the decomposition loop can end with remaining > 0
// (floating-point dust in the running suffix sum leaves the last
// positive bucket's conditional probability fractionally below 1, and
// its binomial occasionally under-draws), and the pre-fix code credited
// those leftovers to out[m-1] even when probs[m-1] == 0 — resurrecting
// an option the distribution says is extinct.
func TestMultinomialTrailingZeroBucket(t *testing.T) {
	// Public-API property: zero-probability buckets stay empty and mass
	// is conserved, across trailing-, interior-, and leading-zero
	// shapes. (The dust event itself fires at ~n·2⁻⁵² per draw — real
	// across a fleet of million-step jobs, unreachable in a unit test —
	// so the deterministic seam test below forces it.)
	r := rng.New(3)
	for _, probs := range [][]float64{
		{0.1, 0.2, 0.3, 0, 0},
		{0.5, 0, 0.5, 0},
		{0, 0.7, 0.3, 0},
	} {
		for trial := 0; trial < 300; trial++ {
			out, err := Multinomial(r, 1000, probs)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for j, k := range out {
				sum += k
				if probs[j] == 0 && k != 0 {
					t.Fatalf("probs=%v: zero-probability bucket %d got %d draws", probs, j, k)
				}
			}
			if sum != 1000 {
				t.Fatalf("probs=%v: drew %d of 1000", probs, sum)
			}
		}
	}

	// Deterministic seam test: drive the sampling core with the exact
	// state the dust event produces — a positive remainingP carried
	// into an all-zero tail. With probs = {0.5, 0.5, 0} and an
	// inflated total, bucket 1's conditional probability is < 1, so
	// some trials leave remaining > 0 at the tail; the leftovers must
	// land in bucket 1 (the last positive bucket), not bucket 2.
	probs := []float64{0.5, 0.5, 0}
	total := 1.0 + 1e-9 // accumulated dust, exaggerated to make the leak frequent
	out := make([]int, 3)
	leaked := false
	for trial := 0; trial < 2000; trial++ {
		multinomialInto(r, 1000, probs, total, 1, out)
		if out[2] != 0 {
			t.Fatalf("trial %d: leftovers resurrected zero bucket: %v", trial, out)
		}
		if out[0]+out[1] != 1000 {
			t.Fatalf("trial %d: lost mass: %v", trial, out)
		}
		if out[0] != 1000 && out[0]+out[1] == 1000 {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("seam test never exercised the leftover path; increase the dust")
	}
}

// TestAliasRebuildMatchesFreshTable checks that a table rebuilt in
// place over weight vectors of changing length draws exactly what a
// fresh table built from the same weights draws.
func TestAliasRebuildMatchesFreshTable(t *testing.T) {
	weightSets := [][]float64{
		{1, 1, 1},
		{0.9, 0.05, 0.05},
		{5, 0, 3, 0, 2, 1, 0, 9},
		{1e-9, 1, 1e9},
	}
	reused := &Alias{}
	for _, weights := range weightSets {
		fresh := &Alias{}
		if err := fresh.Rebuild(weights); err != nil {
			t.Fatal(err)
		}
		if err := reused.Rebuild(weights); err != nil {
			t.Fatal(err)
		}
		if fresh.Len() != reused.Len() {
			t.Fatalf("weights=%v: len %d != %d", weights, reused.Len(), fresh.Len())
		}
		r1 := rng.New(42)
		r2 := rng.New(42)
		for i := 0; i < 5000; i++ {
			if a, b := fresh.Sample(r1), reused.Sample(r2); a != b {
				t.Fatalf("weights=%v draw %d: rebuilt table sampled %d, fresh %d", weights, i, b, a)
			}
		}
	}
	if err := reused.Rebuild(nil); err == nil {
		t.Fatal("empty rebuild accepted")
	}
	if err := reused.Rebuild([]float64{-1, 2}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestAliasRebuildSteadyStateAllocs pins the zero-allocation contract
// the per-step engines rely on: after the first build, rebuilding with
// same-length weights allocates nothing.
func TestAliasRebuildSteadyStateAllocs(t *testing.T) {
	weights := []float64{0.4, 0.3, 0.2, 0.1}
	a := &Alias{}
	if err := a.Rebuild(weights); err != nil {
		t.Fatal(err)
	}
	// Let the worklist buffers reach their steady-state capacity.
	for i := 0; i < 4; i++ {
		weights[i%4] = 0.1 + float64(i%3)*0.3
		if err := a.Rebuild(weights); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.Rebuild(weights); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Alias.Rebuild allocated %.1f times per call in steady state", allocs)
	}
}
