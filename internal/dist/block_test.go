package dist

import (
	"testing"

	"repro/internal/rng"
)

func TestBinomialBlockMatchesPerLaneDraws(t *testing.T) {
	const lanes, m = 5, 4
	n := make([]int, lanes*m)
	p := make([]float64, lanes*m)
	thin := make([]*Thinning, lanes*m)
	setup := rng.New(11)
	for i := range n {
		n[i] = setup.Intn(500)
		p[i] = setup.Float64()
		th := NewThinning(p[i])
		thin[i] = &th
	}

	s := rng.NewStriped(321, 2, lanes)
	got := make([]int, lanes*m)
	BinomialBlock(s, lanes, m, n, thin, got)

	ref := rng.NewStriped(321, 2, lanes)
	for k := 0; k < lanes; k++ {
		r := ref.Lane(k)
		for j := 0; j < m; j++ {
			want := BinomialUnchecked(r, n[k*m+j], p[k*m+j])
			if got[k*m+j] != want {
				t.Fatalf("lane %d category %d: block %d, reference %d", k, j, got[k*m+j], want)
			}
		}
	}
	// Lane states advanced identically.
	for k := 0; k < lanes; k++ {
		if s.Lane(k).Uint64() != ref.Lane(k).Uint64() {
			t.Fatalf("lane %d state diverged", k)
		}
	}
}
