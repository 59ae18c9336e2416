package rng

// This file holds both replication seed schedules of the draw-order
// contract. v1 gives replication rep of a spec with base seed base one
// stream of its own, New(SeedFor(base, rep)). v2 ("striped") gives one
// independent xoshiro stream per replication lane, stored contiguously
// so block engines stride through lane states cache-linearly. Both
// sit on the same primitive generator, and both formulas are frozen.
//
// # The v1 replication-seed formula is frozen
//
// SeedFor(base, rep) is base + rep·γ with SplitMix64's γ
// (0x9e3779b97f4a7c15). Replication 0 therefore runs on the spec's own
// seed, which is why a one-replication service run replays a direct
// core.New run of the same seed.
//
// # The v2 lane-seed formula is frozen
//
// Lane k of a block seeded from base draws from
//
//	New(StripeSeed(base, k))
//
// where StripeSeed applies the SplitMix64 finalizer to
// base + (k+1)·0xd1342543de82ef95. The additive constant deliberately
// differs from SplitMix64's γ so that v2 lane seeds never coincide with
// the v1 schedule: a spec run under v2 produces different draws from
// the same spec under v1 even at one replication, which is what keeps
// the two draw orders honestly distinct cache keys. Lane numbering is
// global to the run — lane k of a block starting at lane0 is stream
// lane0+k — so any partition of R replications into blocks replays
// bit-identically.

// SeedFor returns the seed of replication rep in the v1 draw order for
// base seed base.
func SeedFor(base uint64, rep int) uint64 {
	return base + uint64(rep)*0x9e3779b97f4a7c15
}

// stripeGamma is the v2 lane-seed increment. It is the odd constant
// from Steele & Vigna's LXM mixers, chosen here simply as a
// well-distributed odd multiplier distinct from SplitMix64's γ.
const stripeGamma = 0xd1342543de82ef95

// StripeSeed returns the seed of replication lane `lane` in the v2 draw
// order for base seed base. It is O(1) in lane (no stream to fast-forward),
// so a block starting at any lane0 seeds directly.
func StripeSeed(base uint64, lane int) uint64 {
	z := base + (uint64(lane)+1)*stripeGamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Striped holds one independent generator per replication lane of a
// block, stored contiguously so block kernels stride through lane
// states cache-linearly. Lane i of a Striped seeded at (base, lane0)
// carries global lane lane0+i. Not safe for concurrent use.
type Striped struct {
	lanes []RNG
}

// NewStriped returns lanes generators seeded for global lanes
// [lane0, lane0+lanes) of base.
func NewStriped(base uint64, lane0, lanes int) *Striped {
	s := &Striped{lanes: make([]RNG, lanes)}
	s.Reseed(base, lane0)
	return s
}

// Reseed reinitializes every lane in place to the state NewStriped
// would produce for (base, lane0), without allocating.
func (s *Striped) Reseed(base uint64, lane0 int) {
	for i := range s.lanes {
		s.lanes[i].Reseed(StripeSeed(base, lane0+i))
	}
}

// Len returns the number of lanes.
func (s *Striped) Len() int { return len(s.lanes) }

// Lane returns lane i's generator. Draws made through it are ordinary
// stream draws on that lane; block kernels and direct lane use may be
// interleaved freely as long as each lane's own draw order is the one
// the contract specifies.
func (s *Striped) Lane(i int) *RNG { return &s.lanes[i] }
