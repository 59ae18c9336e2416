package population

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/dist"
	"repro/internal/env"
	"repro/internal/rng"
)

// This file holds the replication-block engine of the v2 draw order:
// one engine advances a whole block of independent replications
// ("lanes") together, with per-lane state stored structure-of-arrays
// (lane k's row of any lanes×m buffer is [k·m, (k+1)·m)) and one
// independent rng stream per lane (rng.Striped).
//
// The v2 per-lane contract differs from v1 deliberately — that is what
// the draw_order version in the serving layer names. Per lane and per
// step:
//
//  1. the environment draws the fresh rewards (from the lane's own
//     stream — rewards stay independent across replications, so
//     cross-replication statistics keep their v1 law);
//  2. the engine draws one stage-1 multinomial (the conditional
//     binomial decomposition of dist.MultinomialSampler, ascending
//     category order) and then m stage-2 adoption binomials in
//     ascending category order.
//
// The block engine advances the counts-based law this way for both
// finite engines — O(m) draws per lane-step regardless of population
// size, where the v1 per-trajectory AgentEngine walks every individual.
// That is sound because every individual follows the one Config.Rule:
// the individuals of a lane are exchangeable, so the per-agent walk and
// the counts-based dynamics are the same stochastic law — the equality
// the v1 AgentEngine/AggregateEngine pair already relies on (package
// doc).
//
// Each lane draws only from its own stream, so any partition of R
// replications into blocks — including R blocks of one lane — replays
// every lane bit-identically. Block width is a scheduling choice, not
// part of the contract.

// blockCommon holds the block engine's per-lane SoA state.
type blockCommon struct {
	lanes, m   int
	mu         float64
	environ    env.Environment
	striped    *rng.Striped
	t          int
	q          []float64 // lanes×m popularity rows Q^t
	counts     []int     // lanes×m committed counts D^t
	rewards    []float64 // lanes×m latest rewards R^t
	probs      []float64 // scratch: one lane's sampling probabilities
	initCounts []int     // per-lane template (length m), nil = uniform
	groupRew   []float64 // per-lane latest group reward
	cumReward  []float64 // per-lane cumulative group reward
}

func newBlockCommon(c *Config, m, lane0, lanes int) blockCommon {
	var initCounts []int
	if c.InitialCounts != nil {
		initCounts = make([]int, m)
		copy(initCounts, c.InitialCounts)
	}
	s := blockCommon{
		lanes:      lanes,
		m:          m,
		mu:         c.Mu,
		environ:    c.Env,
		striped:    rng.NewStriped(c.Seed, lane0, lanes),
		q:          make([]float64, lanes*m),
		counts:     make([]int, lanes*m),
		rewards:    make([]float64, lanes*m),
		probs:      make([]float64, m),
		initCounts: initCounts,
		groupRew:   make([]float64, lanes),
		cumReward:  make([]float64, lanes),
	}
	s.resetRows()
	return s
}

// resetRows restores every lane's non-RNG state to the constructor's.
func (s *blockCommon) resetRows() {
	s.t = 0
	for i := range s.rewards {
		s.rewards[i] = 0
	}
	for i := range s.counts {
		s.counts[i] = 0
	}
	for k := 0; k < s.lanes; k++ {
		row := k * s.m
		if s.initCounts != nil {
			copy(s.counts[row:row+s.m], s.initCounts)
		}
		initPopularityInto(s.q[row:row+s.m], s.initCounts)
	}
	for k := range s.groupRew {
		s.groupRew[k] = 0
		s.cumReward[k] = 0
	}
}

// Reset reinitializes the block in place to the state its constructor
// would produce for (seed, lane0), reusing all buffers. Like
// Engine.Reset, the environment is not reset: only blocks driven by
// stateless environments may be reset.
func (s *blockCommon) Reset(seed uint64, lane0 int) {
	s.striped.Reseed(seed, lane0)
	s.resetRows()
}

// T returns the number of completed steps.
func (s *blockCommon) T() int { return s.t }

// Options returns the number of options m.
func (s *blockCommon) Options() int { return s.m }

// Lanes returns the number of replication lanes advanced per step.
func (s *blockCommon) Lanes() int { return s.lanes }

// GroupReward returns lane's latest-step group reward.
func (s *blockCommon) GroupReward(lane int) float64 { return s.groupRew[lane] }

// CumulativeGroupReward returns lane's reward summed over all steps.
func (s *blockCommon) CumulativeGroupReward(lane int) float64 { return s.cumReward[lane] }

// AppendPopularity appends lane's Q^t row to dst and returns it.
func (s *blockCommon) AppendPopularity(lane int, dst []float64) []float64 {
	row := lane * s.m
	return append(dst, s.q[row:row+s.m]...)
}

// AppendCounts appends lane's D^t row to dst and returns it.
func (s *blockCommon) AppendCounts(lane int, dst []int) []int {
	row := lane * s.m
	return append(dst, s.counts[row:row+s.m]...)
}

// stageLane runs the shared per-lane prologue of a block step — fresh
// environment rewards, group-reward accounting against Q^{t−1}, and
// the stage-1 sampling probabilities left in s.probs — and zeroes the
// lane's next-counts row.
func (s *blockCommon) stageLane(k int, next []int) error {
	r := s.striped.Lane(k)
	row := k * s.m
	rew := s.rewards[row : row+s.m]
	if err := s.environ.Step(r, rew); err != nil {
		return fmt.Errorf("population: environment step: %w", err)
	}
	q := s.q[row : row+s.m]
	g := 0.0
	for j, x := range rew {
		g += q[j] * x
	}
	s.groupRew[k] = g
	s.cumReward[k] += g
	samplingProbs(s.probs, q, s.mu)
	lane := next[row : row+s.m]
	for j := range lane {
		lane[j] = 0
	}
	return nil
}

// commitLane refreshes lane k's popularity row from its new counts
// (previous popularity retained if nobody committed, like
// commitCounts).
func (s *blockCommon) commitLane(k int, next []int) {
	row := k * s.m
	lane := next[row : row+s.m]
	total := 0
	for _, d := range lane {
		total += d
	}
	if total > 0 {
		q := s.q[row : row+s.m]
		ft := float64(total)
		for j, d := range lane {
			q[j] = float64(d) / ft
		}
	}
}

// finishStep installs the new counts by swapping the whole SoA buffer —
// no copy — and returns the previous buffer as next step's scratch.
func (s *blockCommon) finishStep(next []int) (recycled []int) {
	recycled = s.counts
	s.counts = next
	s.t++
	return recycled
}

// BlockEngine advances a block of finite-population replications in
// the v2 draw order, for both finite engines: the per-lane SoA state
// plus the stage-1 multinomial sampler and stage-2 thinning buffers.
// The two constructors differ only in what they accept
// (NewAgentBlockEngine requires an agent.Linear rule, mirroring the v1
// AgentEngine's surface; NewAggregateBlockEngine any rule), not
// in how the block steps, so under v2 the agent and aggregate engines
// draw identical sequences.
type BlockEngine struct {
	blockCommon
	n           int
	alpha, beta dist.Thinning // stage-2 adoption draws at p = α and β
	sampler     *dist.MultinomialSampler
	sampled     []int            // lanes×m stage-1 multinomial counts
	padopt      []*dist.Thinning // lanes×m stage-2 draws: &alpha or &beta
	next        []int            // lanes×m scratch: new committed counts
}

func newBlockEngine(c *Config, m, lane0, lanes int, alpha, beta float64) (*BlockEngine, error) {
	e := &BlockEngine{
		blockCommon: newBlockCommon(c, m, lane0, lanes),
		n:           c.N,
		alpha:       dist.NewThinning(alpha),
		beta:        dist.NewThinning(beta),
		sampled:     make([]int, lanes*m),
		padopt:      make([]*dist.Thinning, lanes*m),
		next:        make([]int, lanes*m),
	}
	// Validate the stage-1 family once; every later probs vector is the
	// mixed distribution (1−µ)Q + µ/m, which stays in the family by
	// construction.
	samplingProbs(e.probs, e.q[:m], e.mu)
	var err error
	e.sampler, err = dist.NewMultinomialSampler(e.probs)
	if err != nil {
		return nil, fmt.Errorf("population: stage-1 multinomial: %w", err)
	}
	return e, nil
}

// N returns the population size per lane.
func (e *BlockEngine) N() int { return e.n }

// StepBlock advances every lane one time step. Per lane the draw
// sequence is: the environment's m reward draws, one stage-1 multinomial
// (conditional binomials, ascending category order), then m stage-2
// adoption binomials in ascending category order — boundary adoption
// probabilities (α = 0, β = 1) flow through the binomial's exact clamps
// and consume no draw, like the v1 scalar paths.
func (e *BlockEngine) StepBlock() error {
	m, L := e.m, e.lanes
	for k := 0; k < L; k++ {
		if err := e.stageLane(k, e.next); err != nil {
			return err
		}
		r := e.striped.Lane(k)
		row := k * m
		e.sampler.SampleInto(r, e.n, e.probs, e.sampled[row:row+m])
		rew := e.rewards[row : row+m]
		pad := e.padopt[row : row+m]
		for j, x := range rew {
			if x >= 1 {
				pad[j] = &e.beta
			} else {
				pad[j] = &e.alpha
			}
		}
	}
	dist.BinomialBlock(e.striped, L, m, e.sampled, e.padopt, e.next)
	for k := 0; k < L; k++ {
		e.commitLane(k, e.next)
	}
	e.next = e.finishStep(e.next)
	return nil
}

// NewAgentBlockEngine validates the config and builds a block of lanes
// EngineAgent replications seeded at global lane lane0 from c.Seed. It
// requires an agent.Linear rule. One rule shared by every individual
// makes the individuals of one lane exchangeable — their candidate
// tallies are exactly Multinomial(n, (1−µ)Q + µ/m) and their adoption
// outcomes per category sum to a Binomial — so the block advances the
// counts-based law directly, in O(m) draws per lane-step where the v1
// per-trajectory path walks all n agents. Equal in law to the v1
// AgentEngine.
func NewAgentBlockEngine(c Config, lane0, lanes int) (*BlockEngine, error) {
	m, err := c.validate()
	if err != nil {
		return nil, err
	}
	if lane0 < 0 || lanes <= 0 {
		return nil, fmt.Errorf("%w: block of %d lanes at lane %d", ErrBadConfig, lanes, lane0)
	}
	lin, ok := c.Rule.(agent.Linear)
	if !ok {
		return nil, fmt.Errorf("%w: block engine requires an agent.Linear rule", ErrBadConfig)
	}
	return newBlockEngine(&c, m, lane0, lanes, lin.Alpha(), lin.Beta())
}

// NewAggregateBlockEngine validates the config and builds a block of
// lanes AggregateEngine replications seeded at global lane lane0 from
// c.Seed: per lane, environment rewards, one stage-1 multinomial, then
// stage-2 binomial thinning for the whole block in ascending option
// order per lane.
func NewAggregateBlockEngine(c Config, lane0, lanes int) (*BlockEngine, error) {
	m, err := c.validate()
	if err != nil {
		return nil, err
	}
	if lane0 < 0 || lanes <= 0 {
		return nil, fmt.Errorf("%w: block of %d lanes at lane %d", ErrBadConfig, lanes, lane0)
	}
	return newBlockEngine(&c, m, lane0, lanes, c.Rule.Alpha(), c.Rule.Beta())
}
