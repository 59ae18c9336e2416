package core

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/infinite"
	"repro/internal/population"
	"repro/internal/rng"
)

// BlockGroup advances a block of independent replications ("lanes") of
// one configuration together. Lane k of a block built at (seed, lane0)
// is global replication lane0+k and draws only from its own stream, so
// any partition of a variant's replications into blocks replays every
// lane bit-identically, and block width is purely a scheduling/memory
// choice.
//
// NewBlock builds the v2 draw order, lane k seeded rng.StripeSeed(seed,
// lane0+k): the aggregate, agent, and infinite engines run as true
// structure-of-arrays block engines (internal/population,
// internal/infinite), and a network configuration runs one v1 engine
// per lane under v2 lane seeding — the graph is immutable and shared,
// so each lane costs one dynamics state, which is why schedulers keep
// network blocks narrow. Template.NewBlockV1 builds the v1 draw order:
// one v1 engine per lane, lane k replaying Template.Group at
// rng.SeedFor(seed, lane0+k).
type BlockGroup struct {
	e       blockEngine
	environ env.Environment
	eta1    float64
	lanes   int
}

// blockEngine advances every lane of a block: population.BlockEngine,
// infinite.BlockProcess, or laneGroups.
type blockEngine interface {
	StepBlock() error
	T() int
	GroupReward(lane int) float64
	CumulativeGroupReward(lane int) float64
	AppendPopularity(lane int, dst []float64) []float64
	Reset(seed uint64, lane0 int)
}

// laneGroups is a block of independent v1 engines, one per lane, lane
// k seeded seed(base, lane0+k): every v1 block, and the v2 network
// block, which has no structure-of-arrays kernel.
type laneGroups struct {
	lanes []engine
	seed  func(base uint64, lane int) uint64
}

func (b *laneGroups) StepBlock() error {
	for _, e := range b.lanes {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (b *laneGroups) T() int { return b.lanes[0].T() }

func (b *laneGroups) GroupReward(lane int) float64 { return b.lanes[lane].GroupReward() }

func (b *laneGroups) CumulativeGroupReward(lane int) float64 {
	return b.lanes[lane].CumulativeGroupReward()
}

func (b *laneGroups) AppendPopularity(lane int, dst []float64) []float64 {
	return b.lanes[lane].AppendPopularity(dst)
}

func (b *laneGroups) Reset(seed uint64, lane0 int) {
	for k, e := range b.lanes {
		e.Reset(b.seed(seed, lane0+k))
	}
}

// NewBlock validates the config and constructs a v2 block of lanes
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

// NewBlock builds one v2 replication block for a variant of the
// template's family — the v2 counterpart of Template.Group. The result
// is identical to core.NewBlock with the corresponding Config.
func (t *Template) NewBlock(n int, kind EngineKind, seed uint64, lane0, lanes int) (*BlockGroup, error) {
	if err := checkLanes(lane0, lanes); err != nil {
		return nil, err
	}
	var e blockEngine
	var err error
	switch {
	case t.network != nil:
		return t.newLaneGroups(n, kind, seed, lane0, lanes, rng.StripeSeed)
	case n == 0:
		e, err = infinite.NewBlock(infinite.Config{
			Mu: t.mu, Rule: t.rule, Env: t.environ, Seed: seed,
		}, lane0, lanes)
	case kind == EngineAggregate:
		e, err = population.NewAggregateBlockEngine(t.popConfig(n, seed), lane0, lanes)
	case kind == EngineAgent:
		e, err = population.NewAgentBlockEngine(t.popConfig(n, seed), lane0, lanes)
	default:
		return nil, fmt.Errorf("%w: unknown engine %d", ErrBadConfig, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return t.block(e, lanes), nil
}

// NewBlockV1 builds a block of v1-order replications: lane k replays
// Group(n, kind, rng.SeedFor(seed, lane0+k)) bit for bit, so a block
// folds exactly as those groups run one by one would.
func (t *Template) NewBlockV1(n int, kind EngineKind, seed uint64, lane0, lanes int) (*BlockGroup, error) {
	if err := checkLanes(lane0, lanes); err != nil {
		return nil, err
	}
	return t.newLaneGroups(n, kind, seed, lane0, lanes, rng.SeedFor)
}

// newLaneGroups builds a block of one v1 engine per lane, lane k seeded
// laneSeed(seed, lane0+k).
func (t *Template) newLaneGroups(n int, kind EngineKind, seed uint64, lane0, lanes int, laneSeed func(uint64, int) uint64) (*BlockGroup, error) {
	b := &laneGroups{lanes: make([]engine, lanes), seed: laneSeed}
	for k := range b.lanes {
		e, err := t.engine(n, kind, laneSeed(seed, lane0+k))
		if err != nil {
			return nil, err
		}
		b.lanes[k] = e
	}
	return t.block(b, lanes), nil
}

// block wraps a built engine of lanes lanes in the template's family.
func (t *Template) block(e blockEngine, lanes int) *BlockGroup {
	return &BlockGroup{e: e, environ: t.environ, eta1: t.eta1, lanes: lanes}
}

// checkLanes rejects a block that starts before lane 0 or holds no lane.
func checkLanes(lane0, lanes int) error {
	if lane0 < 0 || lanes <= 0 {
		return fmt.Errorf("%w: block of %d lanes at lane %d", ErrBadConfig, lanes, lane0)
	}
	return nil
}

// Lanes returns the number of replication lanes.
func (b *BlockGroup) Lanes() int { return b.lanes }

// Options returns the number of options m.
func (b *BlockGroup) Options() int { return b.environ.Options() }

// BestQuality returns the largest η_j the lanes are measured against.
func (b *BlockGroup) BestQuality() float64 { return b.eta1 }

// T returns the number of completed steps (identical across lanes).
func (b *BlockGroup) T() int { return b.e.T() }

// StepBlock advances every lane one time step.
func (b *BlockGroup) StepBlock() error { return b.e.StepBlock() }

// GroupReward returns lane's latest-step group reward.
func (b *BlockGroup) GroupReward(lane int) float64 { return b.e.GroupReward(lane) }

// CumulativeGroupReward returns lane's group reward summed over all
// steps since construction or Reset.
func (b *BlockGroup) CumulativeGroupReward(lane int) float64 { return b.e.CumulativeGroupReward(lane) }

// AppendPopularity appends lane's current popularity vector to dst and
// returns it.
func (b *BlockGroup) AppendPopularity(lane int, dst []float64) []float64 {
	return b.e.AppendPopularity(lane, dst)
}

// Reset reinitializes the block in place to the state its constructor
// would produce for (seed, lane0), reusing every buffer — the block
// counterpart of Group.Reset, with the same stateless-environment
// requirement. It is how sweep workers recycle engine buffers across
// tasks.
func (b *BlockGroup) Reset(seed uint64, lane0 int) error {
	if lane0 < 0 {
		return fmt.Errorf("%w: reset at lane %d", ErrBadConfig, lane0)
	}
	if _, ok := b.environ.(*env.IIDBernoulli); !ok {
		return fmt.Errorf("%w: Reset requires the stateless IID Bernoulli environment", ErrBadConfig)
	}
	b.e.Reset(seed, lane0)
	return nil
}
