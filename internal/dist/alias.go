package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Alias is a Walker/Vose alias table: O(m) construction, O(1) draws
// from a fixed categorical distribution. Rebuild refreshes the table in
// place for a new weight vector, reusing every internal buffer, so an
// engine that re-weights each step keeps one steady-state-allocation-
// free table instead of constructing a fresh one per step.
type Alias struct {
	prob  []float64
	alias []int

	// thresh is prob pre-scaled by 2⁵³ (an exact, exponent-only
	// scaling) for the bulk kernel, which compares raw 53-bit draws
	// directly instead of converting each to [0, 1).
	thresh []float64

	// Construction worklists, retained across Rebuild calls.
	scaled       []float64
	small, large []int
}

// Rebuild reconstructs the table for a new weight vector (non-negative,
// finite, positive sum; normalized internally; the length may change).
// The zero Alias is an empty table, so (&Alias{}).Rebuild(w) builds a
// fresh one. The construction is deterministic, so a rebuilt table
// draws exactly the sequence a fresh table would. After the first
// build with a given length, Rebuild allocates nothing.
func (a *Alias) Rebuild(weights []float64) error {
	m := len(weights)
	total, err := aliasTotal(weights)
	if err != nil {
		return err
	}
	a.prob = resizeFloats(a.prob, m)
	a.scaled = resizeFloats(a.scaled, m)
	a.alias = resizeInts(a.alias, m)
	// Worklists are pre-sized to their m-element worst case so no
	// append during redistribution can ever grow them: the first
	// Rebuild of a given length is the last allocation.
	a.small = resizeInts(a.small, m)[:0]
	a.large = resizeInts(a.large, m)[:0]
	a.thresh = resizeFloats(a.thresh, m)
	buildAliasInto(weights, total, a.prob, a.alias, a.thresh, a.scaled, a.small, a.large)
	return nil
}

// aliasTotal validates an alias weight vector (non-empty, finite,
// non-negative, positive sum) and returns its total, without touching
// any table state — a failed Rebuild must leave the table unchanged.
func aliasTotal(weights []float64) (float64, error) {
	if len(weights) == 0 {
		return 0, fmt.Errorf("%w: alias with no weights", ErrBadParam)
	}
	total := 0.0
	for j, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0, fmt.Errorf("%w: alias weight[%d]=%v", ErrBadParam, j, w)
		}
		total += w
	}
	if total <= 0 {
		return 0, fmt.Errorf("%w: alias weights sum to %v", ErrBadParam, total)
	}
	return total, nil
}

// buildAliasInto is the deterministic Vose construction behind
// Alias.Rebuild: it fills prob, alias, and
// thresh (prob pre-scaled by 2⁵³) for the validated weights, using
// scaled plus the small/large worklists as scratch. All destinations
// are length m = len(weights); the worklists need capacity m and are
// passed length 0.
func buildAliasInto(weights []float64, total float64, prob []float64, alias []int, thresh, scaled []float64, small, large []int) {
	m := len(weights)
	for j, w := range weights {
		scaled[j] = w / total * float64(m)
		if scaled[j] < 1 {
			small = append(small, j)
		} else {
			large = append(large, j)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - prob[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Rounding leftovers: every remaining column keeps its own index.
	for _, j := range large {
		prob[j] = 1
		alias[j] = j
	}
	for _, j := range small {
		prob[j] = 1
		alias[j] = j
	}
	for j, p := range prob[:m] {
		thresh[j] = p * (1 << 53)
	}
}

func resizeFloats(buf []float64, m int) []float64 {
	if cap(buf) < m {
		return make([]float64, m)
	}
	return buf[:m]
}

func resizeInts(buf []int, m int) []int {
	if cap(buf) < m {
		return make([]int, m)
	}
	return buf[:m]
}

// Len returns the number of categories.
func (a *Alias) Len() int { return len(a.prob) }

// Sample draws one category index.
func (a *Alias) Sample(r *rng.RNG) int {
	j := r.Intn(len(a.prob))
	if r.Float64() < a.prob[j] {
		return j
	}
	return a.alias[j]
}

// SampleInto fills dst with independent draws — the bulk form of
// Sample for per-step engine loops. It consumes exactly the draw
// sequence len(dst) Sample calls would (two uniforms per draw, plus
// the bounded draw's rare rejection redraws), delegating to the rng
// package's register-resident bulk kernel.
func (a *Alias) SampleInto(r *rng.RNG, dst []int) {
	r.AliasSampleInto(a.thresh, a.alias, dst)
}
