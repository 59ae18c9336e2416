package infinite

import (
	"fmt"
	"math"

	"repro/internal/env"
	"repro/internal/rng"
)

// BlockProcess advances a replication block of Process trajectories
// together in the v2 draw order: per-lane state stored
// structure-of-arrays (lane k's row of any lanes×m buffer is
// [k·m, (k+1)·m)), one independent rng stream per lane. Per lane and
// per step the draw sequence is the v1 sequence — the environment's m
// reward draws, then the deterministic multiplicative update — under
// v2 lane seeding (rng.StripeSeed instead of the v1 per-replication
// schedule), and the update normalizes by reciprocal multiply rather
// than per-element division. Both differences make v2 results distinct
// from v1 by design.
//
// Unlike Process, the block form does not track the log-potential
// ln Φ^t: reports never consume it, and eliding the per-step math.Log
// is part of the block path's speedup. Callers needing Φ (the
// theorem-proof diagnostics) use the per-trajectory Process.
type BlockProcess struct {
	lanes, m    int
	mu          float64
	alpha, beta float64
	environ     env.Environment
	striped     *rng.Striped

	// Hot-loop invariants, as in Process: V_j = keep·P_j + explore.
	keep    float64
	explore float64

	t       int
	p       []float64 // lanes×m distribution rows P^t
	initP   []float64 // per-lane template (length m), nil = uniform
	rewards []float64 // lanes×m latest rewards
	scratch []float64 // scratch: one lane's unnormalized update

	groupRew  []float64 // per lane
	cumReward []float64 // per lane
}

// NewBlock validates the config and builds a block of lanes
// replications seeded at global lane lane0 from c.Seed.
// TrackRawWeights is not supported in block form (it exists only for
// the numerical-stability ablation, which is per-trajectory).
func NewBlock(c Config, lane0, lanes int) (*BlockProcess, error) {
	if lane0 < 0 || lanes <= 0 {
		return nil, fmt.Errorf("%w: block of %d lanes at lane %d", ErrBadConfig, lanes, lane0)
	}
	if c.TrackRawWeights {
		return nil, fmt.Errorf("%w: raw-weight tracking is per-trajectory only", ErrBadConfig)
	}
	if math.IsNaN(c.Mu) || c.Mu < 0 || c.Mu > 1 {
		return nil, fmt.Errorf("%w: mu=%v", ErrBadConfig, c.Mu)
	}
	if c.Rule == nil {
		return nil, fmt.Errorf("%w: nil rule", ErrBadConfig)
	}
	if c.Env == nil {
		return nil, fmt.Errorf("%w: nil environment", ErrBadConfig)
	}
	m := c.Env.Options()
	if m <= 0 {
		return nil, fmt.Errorf("%w: environment has %d options", ErrBadConfig, m)
	}
	var initP []float64
	if c.InitialP != nil {
		if len(c.InitialP) != m {
			return nil, fmt.Errorf("%w: initial P length %d, want %d", ErrBadConfig, len(c.InitialP), m)
		}
		sum := 0.0
		for j, v := range c.InitialP {
			if math.IsNaN(v) || v < 0 {
				return nil, fmt.Errorf("%w: initial P[%d]=%v", ErrBadConfig, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("%w: initial P sums to %v", ErrBadConfig, sum)
		}
		initP = make([]float64, m)
		copy(initP, c.InitialP)
	}
	b := &BlockProcess{
		lanes:     lanes,
		m:         m,
		mu:        c.Mu,
		alpha:     c.Rule.Alpha(),
		beta:      c.Rule.Beta(),
		environ:   c.Env,
		striped:   rng.NewStriped(c.Seed, lane0, lanes),
		keep:      1 - c.Mu,
		explore:   c.Mu / float64(m),
		p:         make([]float64, lanes*m),
		initP:     initP,
		rewards:   make([]float64, lanes*m),
		scratch:   make([]float64, m),
		groupRew:  make([]float64, lanes),
		cumReward: make([]float64, lanes),
	}
	b.resetRows()
	return b, nil
}

func (b *BlockProcess) resetRows() {
	b.t = 0
	for i := range b.rewards {
		b.rewards[i] = 0
	}
	for k := 0; k < b.lanes; k++ {
		row := b.p[k*b.m : (k+1)*b.m]
		if b.initP != nil {
			copy(row, b.initP)
		} else {
			for j := range row {
				row[j] = 1 / float64(b.m)
			}
		}
	}
	for k := range b.groupRew {
		b.groupRew[k] = 0
		b.cumReward[k] = 0
	}
}

// Reset reinitializes the block in place to the state NewBlock would
// produce for (seed, lane0), reusing all buffers. The environment is
// not reset — stateless environments only, as with Process.Reset.
func (b *BlockProcess) Reset(seed uint64, lane0 int) {
	b.striped.Reseed(seed, lane0)
	b.resetRows()
}

// T returns the number of completed steps.
func (b *BlockProcess) T() int { return b.t }

// Options returns the number of options m.
func (b *BlockProcess) Options() int { return b.m }

// GroupReward returns lane's latest-step Σ_j P^{t−1}_j R^t_j.
func (b *BlockProcess) GroupReward(lane int) float64 { return b.groupRew[lane] }

// CumulativeGroupReward returns lane's reward summed over all steps.
func (b *BlockProcess) CumulativeGroupReward(lane int) float64 { return b.cumReward[lane] }

// AppendPopularity appends lane's P^t row to dst and returns it.
func (b *BlockProcess) AppendPopularity(lane int, dst []float64) []float64 {
	row := lane * b.m
	return append(dst, b.p[row:row+b.m]...)
}

// StepBlock advances every lane one time step.
func (b *BlockProcess) StepBlock() error {
	for k := 0; k < b.lanes; k++ {
		r := b.striped.Lane(k)
		row := k * b.m
		rew := b.rewards[row : row+b.m]
		if err := b.environ.Step(r, rew); err != nil {
			return fmt.Errorf("infinite: environment step: %w", err)
		}
		p := b.p[row : row+b.m]
		// One fused pass over the options: reward accounting and the
		// Process.applyUpdate arithmetic (minus the log-potential),
		// then a reciprocal-multiply normalization — one division per
		// lane-step instead of m. The reciprocal changes low-order bits
		// relative to per-element division; that is v2-contract
		// arithmetic, pinned by the v2 golden fixtures.
		g := 0.0
		total := 0.0
		for j, x := range rew {
			pj := p[j]
			g += pj * x
			factor := b.alpha
			if x >= 1 {
				factor = b.beta
			}
			v := (b.keep*pj + b.explore) * factor
			b.scratch[j] = v
			total += v
		}
		b.groupRew[k] = g
		b.cumReward[k] += g
		if total > 0 {
			inv := 1 / total
			for j := range p {
				p[j] = b.scratch[j] * inv
			}
		}
		// total == 0 (α = 0, all rewards bad) keeps the previous
		// distribution, mirroring Process.
	}
	b.t++
	return nil
}
