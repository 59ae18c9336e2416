// Package netpop implements the paper's future-work extension: the
// social-learning dynamics on a social network, where stage-one sampling
// observes a uniformly random *neighbor* instead of a uniformly random
// member of the whole group.
//
// The state model differs slightly from the well-mixed dynamics of
// package population: every individual always holds a current option
// (initialized uniformly at random). At each step individual i
//
//  1. with probability µ considers a uniformly random option, otherwise
//     considers the option currently held by a uniformly random
//     neighbor; and
//  2. observes the considered option's fresh quality signal and switches
//     to it with probability β (good signal) or α (bad signal);
//     otherwise it keeps its current option.
//
// "Sitting out" therefore means retaining yesterday's choice, which
// keeps every node observable by its neighbors at all times — the
// natural reading of "observe the option that individual chose in the
// previous time step" when sampling is local. On the complete graph this
// is the lazy variant of the paper's dynamics and exhibits the same
// convergence behaviour.
package netpop

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ErrBadConfig reports an invalid network-dynamics configuration.
var ErrBadConfig = errors.New("netpop: invalid config")

// Config parameterizes the network dynamics.
type Config struct {
	// Graph is the social network; its node count is the population
	// size. Nodes with no neighbors always explore uniformly.
	Graph *graph.Graph
	// Mu is the exploration probability.
	Mu float64
	// Rule is the adoption rule every node follows (required).
	Rule agent.Rule
	// Env generates the per-step quality signals.
	Env env.Environment
	// Seed drives all randomness.
	Seed uint64
}

// Dynamics is the network-restricted simulator. Create with New.
type Dynamics struct {
	g       *graph.Graph
	mu      float64
	rule    agent.Rule
	environ env.Environment
	r       *rng.RNG

	// sharedLinear devirtualizes stage-2 adoption when the rule is an
	// agent.Linear (see population.AgentEngine): the per-node interface
	// dispatch collapses to a Bernoulli draw against a per-option
	// probability, with an identical draw sequence.
	sharedLinear agent.Linear
	devirt       bool
	padopt       []float64 // scratch: per-option adoption probability

	m       int
	t       int
	choice  []int
	next    []int
	rewards []float64
	fracs   []float64

	groupRew  float64
	cumReward float64
}

// New validates the config and initializes every node on a uniformly
// random option.
func New(c Config) (*Dynamics, error) {
	if c.Graph == nil || c.Graph.N() == 0 {
		return nil, fmt.Errorf("%w: nil or empty graph", ErrBadConfig)
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
		return nil, fmt.Errorf("%w: %d options", ErrBadConfig, m)
	}
	d := &Dynamics{
		g:       c.Graph,
		mu:      c.Mu,
		rule:    c.Rule,
		environ: c.Env,
		r:       rng.New(c.Seed),
		padopt:  make([]float64, m),
		m:       m,
		choice:  make([]int, c.Graph.N()),
		next:    make([]int, c.Graph.N()),
		rewards: make([]float64, m),
		fracs:   make([]float64, m),
	}
	if lin, ok := c.Rule.(agent.Linear); ok {
		d.sharedLinear, d.devirt = lin, true
	}
	d.resetState(c.Seed)
	return d, nil
}

// resetState (re)installs the t = 0 state: every node on a uniformly
// random option drawn from a freshly seeded generator, exactly as New
// leaves it.
func (d *Dynamics) resetState(seed uint64) {
	d.r.Reseed(seed)
	d.t = 0
	d.groupRew = 0
	d.cumReward = 0
	for j := range d.rewards {
		d.rewards[j] = 0
	}
	for i := range d.choice {
		d.choice[i] = d.r.Intn(d.m)
	}
	d.refreshFracs()
}

// Reset reinitializes the dynamics in place to the state New would
// produce with the same config and the given seed, reusing all buffers:
// a reset dynamics replays a fresh one bit for bit. The environment and
// graph are NOT reset — only dynamics driven by stateless environments
// (the IID Bernoulli default) may be reset.
func (d *Dynamics) Reset(seed uint64) { d.resetState(seed) }

func (d *Dynamics) refreshFracs() {
	for j := range d.fracs {
		d.fracs[j] = 0
	}
	inc := 1 / float64(len(d.choice))
	for _, j := range d.choice {
		d.fracs[j] += inc
	}
}

// N returns the population size.
func (d *Dynamics) N() int { return d.g.N() }

// T returns the number of completed steps.
func (d *Dynamics) T() int { return d.t }

// Options returns the number of options m.
func (d *Dynamics) Options() int { return d.m }

// Fractions returns a copy of the per-option population shares.
func (d *Dynamics) Fractions() []float64 {
	return d.AppendPopularity(make([]float64, 0, d.m))
}

// AppendPopularity appends the per-option population shares (the
// network's popularity vector) to dst and returns it, allocating only
// when dst lacks capacity — the no-copy accessor for per-step internal
// callers.
func (d *Dynamics) AppendPopularity(dst []float64) []float64 { return append(dst, d.fracs...) }

// GroupReward returns the latest step's Σ_j frac^{t−1}_j · R^t_j.
func (d *Dynamics) GroupReward() float64 { return d.groupRew }

// CumulativeGroupReward returns the running sum of group rewards.
func (d *Dynamics) CumulativeGroupReward() float64 { return d.cumReward }

// Step advances one time step.
func (d *Dynamics) Step() error {
	// Stage 1: pick the option each node considers. Nodes read the
	// *current* (time-t) choices of neighbors, so decisions within a
	// step are simultaneous; the considered options are staged in next.
	for i := range d.next {
		if d.r.Bernoulli(d.mu) {
			d.next[i] = d.r.Intn(d.m)
			continue
		}
		nbrs := d.g.Neighbors(i)
		if len(nbrs) == 0 {
			d.next[i] = d.r.Intn(d.m)
			continue
		}
		d.next[i] = d.choice[nbrs[d.r.Intn(len(nbrs))]]
	}

	if err := d.environ.Step(d.r, d.rewards); err != nil {
		return fmt.Errorf("netpop: environment step: %w", err)
	}
	g := 0.0
	for j, rew := range d.rewards {
		g += d.fracs[j] * rew
	}
	d.groupRew = g
	d.cumReward += g

	// Stage 2: adopt or retain. The devirtualized path expands the
	// Bernoulli kernel in place (a frozen rng compatibility surface:
	// p ≤ 0 and p ≥ 1 consume no draw, otherwise one uniform) so the
	// per-node loop body fully inlines.
	if d.devirt {
		alpha, beta := d.sharedLinear.Alpha(), d.sharedLinear.Beta()
		for j, rew := range d.rewards {
			if rew >= 1 {
				d.padopt[j] = beta
			} else {
				d.padopt[j] = alpha
			}
		}
		x := d.r.Hoist()
		padopt, choice := d.padopt, d.choice
		for i, j := range d.next {
			p := padopt[j]
			// Branchless select: adopt j or retain the current
			// option without a data-dependent branch.
			v := choice[i]
			if p > 0 && (p >= 1 || x.Float64() < p) {
				v = j
			}
			choice[i] = v
		}
		x.StoreTo(d.r)
	} else {
		for i, j := range d.next {
			if d.rule.Adopt(d.r, d.rewards[j]) {
				d.choice[i] = j
			}
		}
	}
	d.refreshFracs()
	d.t++
	return nil
}

// Run advances steps steps and returns the time-averaged group reward.
func Run(d *Dynamics, steps int) (float64, error) {
	if d == nil || steps <= 0 {
		return 0, fmt.Errorf("%w: run steps=%d", ErrBadConfig, steps)
	}
	before := d.cumReward
	for i := 0; i < steps; i++ {
		if err := d.Step(); err != nil {
			return 0, err
		}
	}
	return (d.cumReward - before) / float64(steps), nil
}

// HittingTime runs until the best option's share reaches target and
// returns the step count, or maxSteps with reached=false.
func HittingTime(d *Dynamics, best int, target float64, maxSteps int) (steps int, reached bool, err error) {
	if d == nil || best < 0 || best >= d.m || target <= 0 || target > 1 || maxSteps <= 0 {
		return 0, false, fmt.Errorf("%w: hitting best=%d target=%v maxSteps=%d", ErrBadConfig, best, target, maxSteps)
	}
	for steps = 0; steps < maxSteps; steps++ {
		if d.fracs[best] >= target {
			return steps, true, nil
		}
		if err := d.Step(); err != nil {
			return steps, false, err
		}
	}
	return steps, d.fracs[best] >= target, nil
}
