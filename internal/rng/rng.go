// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in this repository.
//
// All simulations in the paper reproduction are driven by explicit RNG
// values injected by the caller, never by global state, so that every
// experiment is exactly reproducible from a single seed. The generator is
// a 128-bit xoshiro256** core seeded through SplitMix64, which is the
// standard construction for turning an arbitrary 64-bit seed into a
// well-distributed full state.
//
// The package also supports deriving independent sub-streams
// (RNG.Split and RNG.Stream): parallel replications of an experiment each
// receive their own stream so results do not depend on scheduling order.
//
// # Draw kernels are a compatibility surface
//
// The exact formulas mapping the Uint64 stream to derived draws are
// frozen: Float64 is float64(Uint64()>>11)·2⁻⁵³ and Intn is Lemire's
// bounded draw (widening multiply of one Uint64 by the bound, redraw
// while the low half is under −bound % bound), Bernoulli(p) consumes
// one Float64 iff 0 < p < 1. Seeded simulations must replay bit for
// bit across versions, and designated hot loops (dist.Alias.SampleInto,
// the engines' adoption stages) expand these kernels in place to get
// full inlining — changing a kernel here without updating them (and
// deliberately regenerating every golden fixture) is a compatibility
// break.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator.
//
// The zero value is not usable; construct one with New. RNG is not safe
// for concurrent use: give each goroutine its own stream via Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place to the exact state New
// would produce for seed, without allocating. Engines use it to reuse
// their scratch across runs (experiment sweeps reset a cached engine
// instead of rebuilding one) while keeping runs bit-identical to a
// freshly constructed generator.
func (r *RNG) Reseed(seed uint64) {
	sm := splitMix64(seed)
	for i := range r.s {
		r.s[i] = sm.next()
	}
	// xoshiro must not start at the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitMix64 is the seeding generator recommended by the xoshiro authors.
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits. The rotations
// use the math/bits intrinsic so the whole generator stays within the
// compiler's inlining budget: per-draw call overhead vanishes from the
// simulation hot loops. The emitted stream is unchanged.
func (r *RNG) Uint64() uint64 {
	s1 := r.s[1]
	result := bits.RotateLeft64(s1*5, 7) * 9
	r.s[2] ^= r.s[0]
	r.s[3] ^= s1
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= s1 << 17
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Split derives a new generator whose stream is independent of the
// receiver's future output. The receiver advances by one step.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Stream derives the i-th reproducible sub-stream of the receiver
// without advancing the receiver. Two calls with the same i return
// generators producing identical sequences.
func (r *RNG) Stream(i uint64) *RNG {
	// Mix the current state with the stream index through SplitMix64 so
	// that nearby indices yield unrelated streams.
	sm := splitMix64(r.s[0] ^ bits.RotateLeft64(r.s[2], 31) ^ (i * 0x9e3779b97f4a7c15))
	return New(sm.next() ^ i)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits scaled into [0,1). Multiplying by the exact
	// reciprocal 2⁻⁵³ is bit-identical to dividing by 2⁵³ (both are
	// exponent-only adjustments) and keeps the method inlinable.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. Values of p outside [0,1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at configuration time.
//
// The body is Lemire's nearly-divisionless bounded generation, split so
// the almost-always fast path (one widening multiply, no division)
// inlines into per-agent sampling loops; the rejection tail lives in
// intnAdjust. bits.Mul64 compiles to the hardware widening multiply and
// returns the same 128-bit product as any software implementation, so
// the draw sequence is a pure function of the xoshiro stream.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		hi = r.intnAdjust(bound, hi, lo)
	}
	return int(hi)
}

// intnAdjust is Intn's rare slow path: compute the rejection threshold
// (one division) and redraw while the low product falls under it.
func (r *RNG) intnAdjust(bound, hi, lo uint64) uint64 {
	threshold := -bound % bound
	for lo < threshold {
		hi, lo = bits.Mul64(r.Uint64(), bound)
	}
	return hi
}

// Local is the generator state hoisted into caller locals for a bulk
// draw loop: inside such a loop the four xoshiro lanes live in
// registers (the struct is scalar-replaced once the small draw methods
// inline) instead of being reloaded and stored through the heap RNG on
// every draw. Obtain one with Hoist, draw through it exclusively, and
// hand the state back with StoreTo before anything else touches the
// source RNG — draws made through a Local are ordinary stream draws,
// so interleaving them with direct RNG use would reorder the stream.
type Local struct{ s0, s1, s2, s3 uint64 }

// Hoist snapshots the generator state into a Local. Until StoreTo, the
// Local owns the stream: do not draw from r directly.
func (r *RNG) Hoist() Local { return Local{r.s[0], r.s[1], r.s[2], r.s[3]} }

// HoistScalars is Hoist as four plain scalars, for loops hot enough
// that even a stack-resident Local struct is too slow (the compiler
// registerizes independent scalars but spills struct fields). The same
// ownership contract applies: draw only on the scalars (expanding the
// frozen Uint64 kernel in place) until StoreScalars.
func (r *RNG) HoistScalars() (s0, s1, s2, s3 uint64) {
	return r.s[0], r.s[1], r.s[2], r.s[3]
}

// StoreScalars writes hoisted scalar state back, returning stream
// ownership to r.
func (r *RNG) StoreScalars(s0, s1, s2, s3 uint64) {
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// StoreTo writes the advanced state back, returning stream ownership
// to r.
func (x *Local) StoreTo(r *RNG) { r.s[0], r.s[1], r.s[2], r.s[3] = x.s0, x.s1, x.s2, x.s3 }

// Uint64 is RNG.Uint64 on the hoisted state: the identical stream.
func (x *Local) Uint64() uint64 {
	s1 := x.s1
	result := bits.RotateLeft64(s1*5, 7) * 9
	x.s2 ^= x.s0
	x.s3 ^= s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= s1 << 17
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result
}

// Float64 is RNG.Float64 on the hoisted state: the identical stream.
func (x *Local) Float64() float64 {
	return float64(x.Uint64()>>11) * (1.0 / (1 << 53))
}

// AliasSampleInto fills dst with draws from the Walker alias table
// (thresh, alias): for each slot it consumes one bounded index draw
// (Lemire, exactly Intn(len(thresh))) and one uniform threshold
// compare — exactly Float64() < p_j, with thresh holding the
// acceptance probabilities pre-scaled by 2⁵³ (an exact, exponent-only
// scaling) so the raw 53-bit draw compares directly. The draw sequence
// is identical to len(dst) such Intn, Float64 pairs, with the
// generator state held in registers for the whole loop. It is the
// stage-one bulk kernel of the simulation engines; distribution logic
// (table construction, validation) stays in the dist package.
func (r *RNG) AliasSampleInto(thresh []float64, alias []int, dst []int) {
	// Plain scalar locals, not a Local struct: the compiler keeps
	// independent scalars in registers across the loop but spills
	// struct fields to the stack, and this loop is the hottest in the
	// repository. The step is the frozen Uint64 kernel.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	// Length hint: alias must cover every category; equalizing the
	// lengths up front lets the compiler drop the alias[j] bounds
	// check once thresh[j] is in range.
	alias = alias[:len(thresh)]
	bound := uint64(len(thresh))
	for i := range dst {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		hi, lo := bits.Mul64(u, bound)
		if lo < bound {
			threshold := -bound % bound
			for lo < threshold {
				u = bits.RotateLeft64(s1*5, 7) * 9
				t = s1 << 17
				s2 ^= s0
				s3 ^= s1
				s1 ^= s2
				s0 ^= s3
				s2 ^= t
				s3 = bits.RotateLeft64(s3, 45)
				hi, lo = bits.Mul64(u, bound)
			}
		}
		j := int(hi)
		u = bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		// Branchless select: the accept test is decided by a random
		// draw, so a branch here mispredicts constantly; a
		// conditional move costs one extra (cached) load instead.
		v := alias[j]
		if float64(u>>11) < thresh[j] {
			v = j
		}
		dst[i] = v
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// ThresholdCountInto draws one uniform per entry of idx and adds one
// to counts[j] when the draw clears thresh[j] — exactly the sequence
// of Bernoulli(p_j) calls with every p_j in the open interval (0, 1),
// which consume one Float64 each. thresh holds the probabilities
// pre-scaled by 2⁵³ (an exact, exponent-only scaling), so the kernel
// compares the raw 53-bit draw directly. It is the stage-two bulk
// kernel of the devirtualized adoption loop; callers must route
// boundary probabilities (p ≤ 0 or p ≥ 1, which consume no draw)
// through the scalar path instead.
//
// scratch needs capacity 4·len(thresh); the kernel accumulates hits
// into four interleaved stripes and folds them into counts at the end,
// so consecutive hits on one hot category (the common fixated-group
// case) do not serialize on a single memory cell's store-to-load
// forwarding latency. Striping is pure reassociation of integer adds:
// the draw sequence and the final counts are unchanged.
func (r *RNG) ThresholdCountInto(thresh []float64, idx []int, counts, scratch []int) {
	m := len(thresh)
	// Length hints: counts must cover every category (see the alias
	// hint in AliasSampleInto), scratch all four stripes.
	counts = counts[:m]
	scratch = scratch[:4*m]
	for i := range scratch {
		scratch[i] = 0
	}
	// Scalar locals for register residency; see AliasSampleInto.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i, j := range idx {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		// Branchless accumulate (see the select in AliasSampleInto):
		// the hit bit is added unconditionally, so the random outcome
		// never costs a branch mispredict.
		hit := 0
		if float64(u>>11) < thresh[j] {
			hit = 1
		}
		scratch[(j<<2)|(i&3)] += hit
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	for j := 0; j < m; j++ {
		k := j << 2
		counts[j] += scratch[k] + scratch[k+1] + scratch[k+2] + scratch[k+3]
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle permutes the integers [0, n) uniformly at random (Fisher–Yates)
// and invokes swap for each transposition, matching math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
