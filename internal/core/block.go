package core

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/infinite"
	"repro/internal/population"
	"repro/internal/rng"
)

// BlockGroup advances a block of independent replications ("lanes") of
// one configuration together — the v2 draw order. Lane k of a block
// built at (seed, lane0) is global replication lane lane0+k, seeded
// rng.StripeSeed(seed, lane0+k); each lane draws only from its own
// stream, so any partition of a variant's replications into blocks
// replays every lane bit-identically, and block width is purely a
// scheduling/memory choice.
//
// The aggregate, agent, and infinite engines run as true
// structure-of-arrays block engines (internal/population,
// internal/infinite); network configurations fall back to one v1-order
// group per lane under v2 lane seeding — the graph is immutable and
// shared, so the fallback costs one dynamics state per lane, which is
// why schedulers keep network blocks narrow.
type BlockGroup struct {
	agent   *population.AgentBlockEngine
	agg     *population.AggregateBlockEngine
	inf     *infinite.BlockProcess
	perLane []*Group  // network fallback, one group per lane
	cum     []float64 // per-lane cumulative reward for the fallback

	environ env.Environment
	eta1    float64
	lanes   int
}

// NewBlock validates the config and constructs a block of lanes
// replications at global lane lane0. Custom environments are rejected:
// one environment instance serves every lane, which is only sound for
// the stateless IID Bernoulli default.
func NewBlock(c Config, lane0, lanes int) (*BlockGroup, error) {
	if c.Environment != nil {
		return nil, fmt.Errorf("%w: block groups require the default IID environment (custom environments may be stateful and cannot be shared across lanes)", ErrBadConfig)
	}
	t, err := c.template()
	if err != nil {
		return nil, err
	}
	return t.NewBlock(c.N, c.Engine, c.Seed, lane0, lanes)
}

// NewBlock builds one replication block for a variant of the
// template's family — the v2 counterpart of Template.Group. The result
// is identical to core.NewBlock with the corresponding Config.
func (t *Template) NewBlock(n int, engine EngineKind, seed uint64, lane0, lanes int) (*BlockGroup, error) {
	if lane0 < 0 || lanes <= 0 {
		return nil, fmt.Errorf("%w: block of %d lanes at lane %d", ErrBadConfig, lanes, lane0)
	}
	b := &BlockGroup{environ: t.environ, eta1: t.eta1, lanes: lanes}
	if t.network != nil {
		b.perLane = make([]*Group, lanes)
		b.cum = make([]float64, lanes)
		for k := range b.perLane {
			d, err := t.netpop(rng.StripeSeed(seed, lane0+k))
			if err != nil {
				return nil, err
			}
			b.perLane[k] = &Group{environ: t.environ, eta1: t.eta1, rule: t.rule, mu: t.mu, network: d}
		}
		return b, nil
	}
	var err error
	if n == 0 {
		b.inf, err = infinite.NewBlock(infinite.Config{
			Mu: t.mu, Rule: t.rule, Env: t.environ, Seed: seed,
		}, lane0, lanes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return b, nil
	}
	popCfg := population.Config{
		N: n, Mu: t.mu, Rule: t.rule, Env: t.environ, Seed: seed,
	}
	switch engine {
	case EngineAggregate:
		b.agg, err = population.NewAggregateBlockEngine(popCfg, lane0, lanes)
	case EngineAgent:
		b.agent, err = population.NewAgentBlockEngine(popCfg, lane0, lanes)
	default:
		return nil, fmt.Errorf("%w: unknown engine %d", ErrBadConfig, engine)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return b, nil
}

// Lanes returns the number of replication lanes.
func (b *BlockGroup) Lanes() int { return b.lanes }

// Options returns the number of options m.
func (b *BlockGroup) Options() int { return b.environ.Options() }

// BestQuality returns the largest η_j the lanes are measured against.
func (b *BlockGroup) BestQuality() float64 { return b.eta1 }

// T returns the number of completed steps (identical across lanes).
func (b *BlockGroup) T() int {
	switch {
	case b.agent != nil:
		return b.agent.T()
	case b.agg != nil:
		return b.agg.T()
	case b.inf != nil:
		return b.inf.T()
	default:
		return b.perLane[0].T()
	}
}

// StepBlock advances every lane one time step.
func (b *BlockGroup) StepBlock() error {
	switch {
	case b.agent != nil:
		return b.agent.StepBlock()
	case b.agg != nil:
		return b.agg.StepBlock()
	case b.inf != nil:
		return b.inf.StepBlock()
	default:
		for k, g := range b.perLane {
			if err := g.Step(); err != nil {
				return err
			}
			b.cum[k] += g.GroupReward()
		}
		return nil
	}
}

// GroupReward returns lane's latest-step group reward.
func (b *BlockGroup) GroupReward(lane int) float64 {
	switch {
	case b.agent != nil:
		return b.agent.GroupReward(lane)
	case b.agg != nil:
		return b.agg.GroupReward(lane)
	case b.inf != nil:
		return b.inf.GroupReward(lane)
	default:
		return b.perLane[lane].GroupReward()
	}
}

// CumulativeGroupReward returns lane's group reward summed over all
// steps since construction or Reset.
func (b *BlockGroup) CumulativeGroupReward(lane int) float64 {
	switch {
	case b.agent != nil:
		return b.agent.CumulativeGroupReward(lane)
	case b.agg != nil:
		return b.agg.CumulativeGroupReward(lane)
	case b.inf != nil:
		return b.inf.CumulativeGroupReward(lane)
	default:
		return b.cum[lane]
	}
}

// AppendPopularity appends lane's current popularity vector to dst and
// returns it.
func (b *BlockGroup) AppendPopularity(lane int, dst []float64) []float64 {
	switch {
	case b.agent != nil:
		return b.agent.AppendPopularity(lane, dst)
	case b.agg != nil:
		return b.agg.AppendPopularity(lane, dst)
	case b.inf != nil:
		return b.inf.AppendDistribution(lane, dst)
	default:
		return b.perLane[lane].AppendPopularity(dst)
	}
}

// Reset reinitializes the block in place to the state its constructor
// would produce for (seed, lane0), reusing every buffer — the block
// counterpart of Group.Reset, with the same stateless-environment
// requirement.
func (b *BlockGroup) Reset(seed uint64, lane0 int) error {
	if lane0 < 0 {
		return fmt.Errorf("%w: reset at lane %d", ErrBadConfig, lane0)
	}
	if _, ok := b.environ.(*env.IIDBernoulli); !ok {
		return fmt.Errorf("%w: Reset requires the stateless IID Bernoulli environment", ErrBadConfig)
	}
	switch {
	case b.agent != nil:
		b.agent.Reset(seed, lane0)
	case b.agg != nil:
		b.agg.Reset(seed, lane0)
	case b.inf != nil:
		b.inf.Reset(seed, lane0)
	default:
		for k, g := range b.perLane {
			g.network.Reset(rng.StripeSeed(seed, lane0+k))
			b.cum[k] = 0
		}
	}
	return nil
}
