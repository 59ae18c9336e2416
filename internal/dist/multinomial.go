package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Multinomial draws counts ~ Mult(n; probs) by the conditional-binomial
// decomposition: each bucket j takes Bin(remaining, p_j / p_{≥j}).
// probs must be non-negative and finite with a positive sum (they are
// normalized internally, so slightly-off-by-rounding vectors are fine).
func Multinomial(r *rng.RNG, n int, probs []float64) ([]int, error) {
	if r == nil || n < 0 || len(probs) == 0 {
		return nil, fmt.Errorf("%w: multinomial(n=%d, m=%d)", ErrBadParam, n, len(probs))
	}
	total, lastPos, err := validateProbs(probs)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	multinomialInto(r, n, probs, total, lastPos, out)
	return out, nil
}

// validateProbs checks probs is non-negative, finite, and has a
// positive sum; it returns the sum and the index of the last positive
// entry (the bucket that absorbs conditional-decomposition leftovers).
func validateProbs(probs []float64) (total float64, lastPos int, err error) {
	for j, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return 0, 0, fmt.Errorf("%w: multinomial prob[%d]=%v", ErrBadParam, j, p)
		}
		total += p
		if p > 0 {
			lastPos = j
		}
	}
	if total <= 0 {
		return 0, 0, fmt.Errorf("%w: multinomial probs sum to %v", ErrBadParam, total)
	}
	return total, lastPos, nil
}

// multinomialInto is the sampling core: conditional-binomial
// decomposition of n draws over probs (summing to total, last positive
// entry at lastPos) written into out, which it zeroes first. Leftover
// draws — the loop ends with remaining > 0 when floating-point dust in
// the running suffix sum shaves a bucket's conditional probability
// below 1 — are credited to the last *positive-weight* bucket, never to
// a trailing zero-probability bucket (which the pre-sampler code could
// resurrect at a ~n·2⁻⁵² rate: invisible in a single run, but a
// real event across a fleet of million-step jobs).
func multinomialInto(r *rng.RNG, n int, probs []float64, total float64, lastPos int, out []int) {
	for j := range out {
		out[j] = 0
	}
	remaining := n
	remainingP := total
	for j := 0; j < len(probs)-1 && remaining > 0; j++ {
		if remainingP <= 0 {
			break
		}
		pj := probs[j] / remainingP
		if pj > 1 {
			pj = 1
		}
		k := BinomialUnchecked(r, remaining, pj)
		out[j] = k
		remaining -= k
		remainingP -= probs[j]
	}
	out[lastPos] += remaining
}

// MultinomialSampler draws multinomial counts into a caller-provided
// buffer with no per-call allocation or re-validation — the sampler
// object form of Multinomial for hot loops that draw every step from
// the same distribution family.
//
// NewMultinomialSampler validates a prototype probability vector once;
// SampleInto then trusts its input, so the caller must guarantee every
// probs it passes stays in the validated family: the same length, all
// entries non-negative and finite, positive sum. The simulation engines
// satisfy this structurally — their stage-one vector (1−µ)·Q_j + µ/m is
// a rescaled probability vector by construction.
//
// SampleInto consumes exactly the same RNG draw sequence as Multinomial
// on the same inputs, so the two are interchangeable bit for bit.
type MultinomialSampler struct {
	m int
}

// NewMultinomialSampler validates the prototype vector (non-negative,
// finite, positive sum) and pins the category count.
func NewMultinomialSampler(prototype []float64) (*MultinomialSampler, error) {
	if len(prototype) == 0 {
		return nil, fmt.Errorf("%w: multinomial sampler with no categories", ErrBadParam)
	}
	if _, _, err := validateProbs(prototype); err != nil {
		return nil, err
	}
	return &MultinomialSampler{m: len(prototype)}, nil
}

// Len returns the number of categories.
func (s *MultinomialSampler) Len() int { return s.m }

// SampleInto draws counts ~ Mult(n; probs) into out (zeroing it first).
// probs and out must have the sampler's length and n must be ≥ 0; probs
// must be in the family validated at construction (see type docs). It
// never allocates.
func (s *MultinomialSampler) SampleInto(r *rng.RNG, n int, probs []float64, out []int) {
	if len(probs) != s.m || len(out) != s.m {
		panic(fmt.Sprintf("dist: MultinomialSampler(m=%d) with len(probs)=%d len(out)=%d",
			s.m, len(probs), len(out)))
	}
	total := 0.0
	lastPos := 0
	for j, p := range probs {
		total += p
		if p > 0 {
			lastPos = j
		}
	}
	multinomialInto(r, n, probs, total, lastPos, out)
}
