package dist

import "repro/internal/rng"

// This file holds the block (v2 draw order) samplers: one draw pass
// covers a whole replication block, with per-lane rows stored
// structure-of-arrays (lane k's row of a lanes×m buffer is
// [k·m, (k+1)·m)). Per-lane draw sequences are the contract; the order
// lanes are visited in is immaterial because every lane draws from its
// own independent stream (rng.Striped).

// BinomialBlock fills out[k·m+j] with a Binomial(n[k·m+j], p) draw
// from lane k's stream, where p is the probability of the Thinning
// t[k·m+j] points at, for all lanes lanes and m categories. Each lane
// consumes draws in ascending category order — the v2 contract for the
// block engines' stage-2 thinning — and only from its own stream, so
// any partition of the lanes into blocks replays bit-identically.
// Parameters are unchecked, like BinomialUnchecked: callers validate
// shapes and probability ranges at construction.
func BinomialBlock(s *rng.Striped, lanes, m int, n []int, t []*Thinning, out []int) {
	for k := 0; k < lanes; k++ {
		r := s.Lane(k)
		row := k * m
		for j := 0; j < m; j++ {
			out[row+j] = t[row+j].Draw(r, n[row+j])
		}
	}
}
