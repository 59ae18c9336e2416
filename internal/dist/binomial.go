package dist

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/rng"
)

// Regime thresholds for Binomial. Exported only through behavior; the
// A02 ablation exercises one case per regime.
const (
	directMaxN  = 30 // n ≤ 30 with small n·p: plain Bernoulli loop
	btrsMinMean = 10 // n·p ≥ 10 (after symmetry): transformed rejection
)

// Binomial draws k ~ Bin(n, p) exactly. It dispatches by regime:
// symmetry reduction for p > 1/2, BTRS (Hörmann's transformed
// rejection) when n·p ≥ 10, a direct Bernoulli loop for small n, and
// geometric failure-skipping otherwise (large n, tiny p).
func Binomial(r *rng.RNG, n int, p float64) (int, error) {
	if r == nil || n < 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("%w: binomial(n=%d, p=%v)", ErrBadParam, n, p)
	}
	return BinomialUnchecked(r, n, p), nil
}

// BinomialUnchecked draws k ~ Bin(n, p) without parameter validation:
// the caller guarantees r non-nil, n ≥ 0, and p ∈ [0, 1] (typically
// validated once at engine construction). It consumes exactly the same
// RNG draw sequence as Binomial, so swapping the two never changes a
// simulation's emitted bits — it only removes the per-draw validation
// from hot loops that issue millions of draws per job. It suits a p
// that changes per call, like the multinomial decomposition's
// conditional binomials: BTRS derives ln(p/q) only if it needs it.
func BinomialUnchecked(r *rng.RNG, n int, p float64) int {
	return binomial(r, n, p, mirror(p), lpqUnset)
}

// Thinning draws Bin(n, p) for one p fixed across many draws: the
// stage-2 adoption draws, whose p is a rule's α or β. It computes once
// what every BinomialUnchecked call derives from p alone, the mirrored
// p of the symmetry reduction and BTRS's ln(p/q). Draws equal
// BinomialUnchecked(r, n, p) bit for bit: same value, same uniforms.
type Thinning struct {
	p, ps, lpq float64 // p; mirror(p); ln(ps/(1−ps))
}

// NewThinning precomputes p's draw constants. Like BinomialUnchecked it
// does not validate: the caller guarantees p ∈ [0, 1].
func NewThinning(p float64) Thinning {
	ps := mirror(p)
	return Thinning{p: p, ps: ps, lpq: math.Log(ps / (1 - ps))}
}

// Draw draws k ~ Bin(n, p); the caller guarantees r non-nil and n ≥ 0.
func (t *Thinning) Draw(r *rng.RNG, n int) int {
	return binomial(r, n, t.p, t.ps, t.lpq)
}

// mirror is the symmetry reduction's p: p itself up to 1/2, else 1−p.
func mirror(p float64) float64 {
	if p > 0.5 {
		return 1 - p
	}
	return p
}

// lpqUnset stands in for ln(p/q), which is never positive for p ≤ 1/2,
// when the caller has not computed it: BTRS computes it on demand.
const lpqUnset = 1

// binomial is the unchecked sampling core: it draws Bin(n, p) given
// ps = mirror(p) and lpq = ln(ps/(1−ps)) or lpqUnset.
func binomial(r *rng.RNG, n int, p, ps, lpq float64) int {
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	k := binomialSmallP(r, n, ps, lpq)
	if p > 0.5 {
		return n - k
	}
	return k
}

// binomialSmallP dispatches by regime for 0 < p ≤ 1/2, n ≥ 1; lpq is
// as for binomial. Every regime hoists the generator state into
// registers (rng.Local) for its draw loop; the stream is unchanged.
func binomialSmallP(r *rng.RNG, n int, p, lpq float64) int {
	if float64(n)*p >= btrsMinMean {
		return btrs(r, n, p, lpq)
	}
	if n <= directMaxN {
		x := r.Hoist()
		k := 0
		for i := 0; i < n; i++ {
			// Bernoulli(p) with p interior: one uniform per trial,
			// accumulated branchlessly.
			hit := 0
			if x.Float64() < p {
				hit = 1
			}
			k += hit
		}
		x.StoreTo(r)
		return k
	}
	return geometricBinomial(r, n, p)
}

// BinomialMean returns n·p.
func BinomialMean(n int, p float64) float64 { return float64(n) * p }

// BinomialVariance returns n·p·(1−p).
func BinomialVariance(n int, p float64) float64 { return float64(n) * p * (1 - p) }

// geometricBinomial counts successes by skipping failure runs with
// geometric jumps — O(n·p) expected work, exact for 0 < p ≤ 1/2.
func geometricBinomial(r *rng.RNG, n int, p float64) int {
	lq := math.Log1p(-p)
	x := r.Hoist()
	k := 0
	i := 0
	for {
		u := x.Float64()
		for u == 0 {
			u = x.Float64()
		}
		jump := math.Floor(math.Log(u) / lq)
		if jump >= float64(n-i) { // next success falls past the end
			break
		}
		i += int(jump) + 1
		k++
		if i >= n {
			break
		}
	}
	x.StoreTo(r)
	return k
}

// btrs draws Bin(n, p) by Hörmann's BTRS transformed-rejection
// algorithm (1993); requires 0 < p ≤ 1/2 and n·p ≥ 10.
//
// The exact-acceptance constants (α, ln(p/q), the mode, and its
// log-gamma term h — two math.Lgamma calls) are only needed when the
// cheap squeeze fails; they are computed lazily on the first squeeze
// failure so the all-squeeze-accept call pays one sqrt and a handful
// of multiplies. ln(p/q) depends on p alone, so a caller drawing many
// times at one p passes it in as lpq (see Thinning); lpqUnset defers it
// to the first squeeze failure with the others. Neither changes the draw
// sequence or the accepted value: the same uniforms feed the same
// tests with the same constants.
func btrs(r *rng.RNG, n int, p, lpq float64) int {
	q := 1 - p
	nf := float64(n)
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	var alpha, m, h float64
	exactReady := false
	// Generator state in plain scalar locals with the frozen Uint64
	// and Float64 kernels expanded in place (struct-based hoisting
	// spills to the stack): this loop draws two uniforms per rejection
	// round on the hottest aggregate-engine path.
	s0, s1, s2, s3 := r.HoistScalars()
	var k int
	for {
		uu := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		vv := bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		u := float64(uu>>11)*(1.0/(1<<53)) - 0.5
		v := float64(vv>>11) * (1.0 / (1 << 53))
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			k = int(kf)
			break
		}
		// Squeeze failed: exact log-acceptance test.
		if !exactReady {
			alpha = (2.83 + 5.1/b) * spq
			if lpq == lpqUnset {
				lpq = math.Log(p / q)
			}
			m = math.Floor(float64(n+1) * p)
			h = lgammaInt(m+1) + lgammaInt(nf-m+1)
			exactReady = true
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lgammaInt(kf+1)-lgammaInt(nf-kf+1)+(kf-m)*lpq {
			k = int(kf)
			break
		}
	}
	r.StoreScalars(s0, s1, s2, s3)
	return k
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// BTRS's exact test only ever evaluates lgamma at integer-valued
// arguments (kf, m, and n are integer-valued floats): these are
// log-factorials, the textbook candidate for caching in a binomial
// sampler. The cache stores math.Lgamma's own outputs, so a hit is
// bit-identical to the direct call; misses (arguments ≥ 2¹⁶) fall
// through. Built lazily on the first exact test, read-only after.
const lgammaIntCacheSize = 1 << 17 // 1 MiB, covers the common n·p range

var (
	lgammaIntOnce  sync.Once
	lgammaIntCache []float64
)

func initLgammaIntCache() {
	c := make([]float64, lgammaIntCacheSize)
	for i := 1; i < lgammaIntCacheSize; i++ {
		c[i], _ = math.Lgamma(float64(i))
	}
	lgammaIntCache = c
}

// lgammaInt is lgamma restricted to integer-valued x ≥ 1.
func lgammaInt(x float64) float64 {
	if x < lgammaIntCacheSize {
		lgammaIntOnce.Do(initLgammaIntCache)
		return lgammaIntCache[int(x)]
	}
	return lgamma(x)
}
