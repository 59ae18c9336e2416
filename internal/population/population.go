// Package population implements the paper's finite-population
// distributed learning dynamics (Section 2.1).
//
// At every time step each of the N individuals:
//
//  1. Sampling — with probability µ considers a uniformly random option;
//     with probability 1−µ considers an option drawn proportionally to
//     its current popularity Q^t_j (equivalently, observes the choice of
//     a uniformly random current adopter).
//  2. Adopting — observes the option's fresh binary quality signal
//     R^{t+1}_j and commits with probability β (good signal) or α (bad
//     signal); otherwise sits out this step.
//
// Popularity is the fraction of committed individuals per option:
// Q^t_j = D^t_j / Σ_k D^t_k.
//
// Two engines advance the same stochastic law:
//
//   - AgentEngine walks every individual explicitly (O(N + m) per step).
//     It supports heterogeneous adoption rules.
//   - AggregateEngine advances only per-option counts using a
//     multinomial draw for stage one and binomial draws for stage two
//     (O(m) per step), enabling populations of millions — the regime
//     Theorem 4.4 needs (N ≳ m^{1/δ²}).
//
// In the measure-zero event that every individual sits out, popularity
// retains its previous value (the group "remembers" yesterday's choices);
// both engines implement the same fallback so they remain equal in law.
//
// Both engines keep their samplers and scratch in the engine struct —
// validated once at construction, reused every step — so a steady-state
// Step performs no heap allocation. The RNG draw order of Step is a
// compatibility surface: seeded runs must replay bit for bit across
// versions (result caches, sweep bit-identity, and persisted reports all
// assume it), so any optimization here must consume exactly the same
// draw sequence.
package population

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/dist"
	"repro/internal/env"
	"repro/internal/rng"
)

var (
	// ErrBadConfig reports an invalid dynamics configuration.
	ErrBadConfig = errors.New("population: invalid config")
)

// Engine is a finite-population dynamics simulator.
type Engine interface {
	// Step advances one time step of the two-stage dynamics.
	Step() error
	// T returns the number of completed steps.
	T() int
	// Options returns the number of options m.
	Options() int
	// Popularity returns a copy of the current popularity vector Q^t.
	Popularity() []float64
	// AppendPopularity appends Q^t to dst and returns it, allocating
	// only when dst lacks capacity — the no-copy accessor for per-step
	// internal callers (trace recording, experiment tables).
	AppendPopularity(dst []float64) []float64
	// Counts returns a copy of the current committed counts D^t.
	Counts() []int
	// AppendCounts appends D^t to dst and returns it (see
	// AppendPopularity).
	AppendCounts(dst []int) []int
	// LastRewards returns a copy of the latest reward vector R^t.
	LastRewards() []float64
	// AppendLastRewards appends R^t to dst and returns it (see
	// AppendPopularity).
	AppendLastRewards(dst []float64) []float64
	// GroupReward returns the latest step's group reward
	// Σ_j Q^{t−1}_j · R^t_j, the summand of the paper's regret.
	GroupReward() float64
	// CumulativeGroupReward returns Σ_{s≤t} Σ_j Q^{s−1}_j R^s_j.
	CumulativeGroupReward() float64
	// Participation returns the fraction of the population that
	// committed to an option in the latest step (the rest sat out).
	Participation() float64
	// Reset reinitializes the engine in place to the state its
	// constructor would produce with the given seed, reusing all
	// buffers: a reset engine replays a fresh engine's run bit for
	// bit. The environment is NOT reset — callers must only Reset
	// engines driven by stateless environments (the IID Bernoulli
	// default).
	Reset(seed uint64)
}

// Config parameterizes either engine.
type Config struct {
	// N is the population size.
	N int
	// Mu is the exploration probability µ ∈ [0, 1].
	Mu float64
	// Rule is the shared adoption rule (required for AggregateEngine;
	// used by AgentEngine when Rules is nil).
	Rule agent.Rule
	// Rules optionally provides heterogeneous per-agent adoption rules
	// (AgentEngine only). When set, its size must equal N.
	Rules *agent.Population
	// Env generates the per-step quality signals.
	Env env.Environment
	// InitialCounts optionally sets D^0 (length m, non-negative, at
	// least one positive entry). When nil, the engine starts from the
	// paper's uniform initialization Q^0_j = 1/m.
	InitialCounts []int
	// Seed drives all randomness of the engine.
	Seed uint64
}

func (c *Config) validate(needShared bool) (m int, err error) {
	if c.N <= 0 {
		return 0, fmt.Errorf("%w: N=%d", ErrBadConfig, c.N)
	}
	if math.IsNaN(c.Mu) || c.Mu < 0 || c.Mu > 1 {
		return 0, fmt.Errorf("%w: mu=%v", ErrBadConfig, c.Mu)
	}
	if c.Env == nil {
		return 0, fmt.Errorf("%w: nil environment", ErrBadConfig)
	}
	m = c.Env.Options()
	if m <= 0 {
		return 0, fmt.Errorf("%w: environment has %d options", ErrBadConfig, m)
	}
	if needShared || c.Rules == nil {
		if c.Rule == nil {
			return 0, fmt.Errorf("%w: nil adoption rule", ErrBadConfig)
		}
	}
	if c.Rules != nil && c.Rules.Size() != c.N {
		return 0, fmt.Errorf("%w: %d rules for N=%d", ErrBadConfig, c.Rules.Size(), c.N)
	}
	if c.InitialCounts != nil {
		if len(c.InitialCounts) != m {
			return 0, fmt.Errorf("%w: %d initial counts for m=%d", ErrBadConfig, len(c.InitialCounts), m)
		}
		total := 0
		for j, d := range c.InitialCounts {
			if d < 0 {
				return 0, fmt.Errorf("%w: negative initial count at %d", ErrBadConfig, j)
			}
			total += d
		}
		if total == 0 {
			return 0, fmt.Errorf("%w: all-zero initial counts", ErrBadConfig)
		}
	}
	return m, nil
}

// initPopularityInto fills q with Q^0: uniform when initCounts is nil,
// otherwise the normalized counts.
func initPopularityInto(q []float64, initCounts []int) {
	if initCounts == nil {
		m := float64(len(q))
		for j := range q {
			q[j] = 1 / m
		}
		return
	}
	total := 0
	for _, d := range initCounts {
		total += d
	}
	for j, d := range initCounts {
		q[j] = float64(d) / float64(total)
	}
}

// samplingProbs fills dst with (1−µ)Q_j + µ/m.
func samplingProbs(dst, q []float64, mu float64) {
	m := float64(len(q))
	for j := range dst {
		dst[j] = (1-mu)*q[j] + mu/m
	}
}

// common holds the state shared by both engines.
type common struct {
	m          int
	mu         float64
	environ    env.Environment
	r          *rng.RNG
	t          int
	q          []float64 // popularity Q^t
	counts     []int     // committed counts D^t
	rewards    []float64 // latest R^t
	probs      []float64 // scratch: sampling probabilities
	initCounts []int     // copy of Config.InitialCounts (nil = uniform start)
	groupRew   float64
	cumReward  float64
}

func newCommon(c *Config, m int) common {
	q := make([]float64, m)
	counts := make([]int, m)
	var initCounts []int
	if c.InitialCounts != nil {
		initCounts = make([]int, m)
		copy(initCounts, c.InitialCounts)
		copy(counts, initCounts)
	}
	initPopularityInto(q, initCounts)
	return common{
		m:          m,
		mu:         c.Mu,
		environ:    c.Env,
		r:          rng.New(c.Seed),
		q:          q,
		counts:     counts,
		rewards:    make([]float64, m),
		probs:      make([]float64, m),
		initCounts: initCounts,
	}
}

// reset restores the constructor's state in place (see Engine.Reset).
func (s *common) reset(seed uint64) {
	s.r.Reseed(seed)
	s.t = 0
	s.groupRew = 0
	s.cumReward = 0
	for j := range s.rewards {
		s.rewards[j] = 0
	}
	for j := range s.counts {
		s.counts[j] = 0
	}
	if s.initCounts != nil {
		copy(s.counts, s.initCounts)
	}
	initPopularityInto(s.q, s.initCounts)
}

func (s *common) T() int { return s.t }

// Options returns the number of options m.
func (s *common) Options() int { return s.m }

func (s *common) Popularity() []float64 {
	return s.AppendPopularity(make([]float64, 0, len(s.q)))
}

// AppendPopularity appends Q^t to dst and returns it.
func (s *common) AppendPopularity(dst []float64) []float64 { return append(dst, s.q...) }

func (s *common) Counts() []int {
	return s.AppendCounts(make([]int, 0, len(s.counts)))
}

// AppendCounts appends D^t to dst and returns it.
func (s *common) AppendCounts(dst []int) []int { return append(dst, s.counts...) }

func (s *common) LastRewards() []float64 {
	return s.AppendLastRewards(make([]float64, 0, len(s.rewards)))
}

// AppendLastRewards appends R^t to dst and returns it.
func (s *common) AppendLastRewards(dst []float64) []float64 { return append(dst, s.rewards...) }

func (s *common) GroupReward() float64 { return s.groupRew }

func (s *common) CumulativeGroupReward() float64 { return s.cumReward }

func (s *common) participationOf(n int) float64 {
	total := 0
	for _, d := range s.counts {
		total += d
	}
	return float64(total) / float64(n)
}

// accountGroupReward must be called after the environment step while s.q
// still holds Q^{t−1}.
func (s *common) accountGroupReward() {
	g := 0.0
	for j, rew := range s.rewards {
		g += s.q[j] * rew
	}
	s.groupRew = g
	s.cumReward += g
}

// commitCounts installs newCounts as the committed counts by swapping
// slices — no copy — and refreshes popularity, falling back to the
// previous popularity if nobody committed. It returns the previous
// counts slice for the caller to reuse as next step's scratch.
func (s *common) commitCounts(newCounts []int) (recycled []int) {
	total := 0
	for _, d := range newCounts {
		total += d
	}
	recycled = s.counts
	s.counts = newCounts
	if total > 0 {
		ft := float64(total)
		for j, d := range newCounts {
			s.q[j] = float64(d) / ft
		}
	}
	s.t++
	return recycled
}

// AgentEngine simulates every individual explicitly.
type AgentEngine struct {
	common
	n     int
	rules []agent.Rule // nil for homogeneous populations
	// sharedLinear devirtualizes stage-2 adoption: when every agent
	// follows one agent.Linear rule, the per-agent interface dispatch
	// collapses to a Bernoulli draw against a per-option probability.
	sharedLinear agent.Linear
	devirt       bool
	sharedRule   agent.Rule // set when Rules is nil and the rule is not Linear
	table        dist.Alias // persistent stage-1 sampling table (Rebuild per step)
	padopt       []float64  // scratch: per-option adoption probability
	stripes      []int      // scratch: stage-2 kernel stripe accumulators (4m)
	choice       []int      // scratch: option considered by each agent this step
	next         []int      // scratch: new committed counts
}

var _ Engine = (*AgentEngine)(nil)

// NewAgentEngine validates the config and builds the per-agent engine.
func NewAgentEngine(c Config) (*AgentEngine, error) {
	m, err := c.validate(false)
	if err != nil {
		return nil, err
	}
	e := &AgentEngine{
		common:  newCommon(&c, m),
		n:       c.N,
		padopt:  make([]float64, m),
		stripes: make([]int, 4*m),
		choice:  make([]int, c.N),
		next:    make([]int, m),
	}
	if c.Rules == nil {
		if lin, ok := c.Rule.(agent.Linear); ok {
			e.sharedLinear, e.devirt = lin, true
		} else {
			e.sharedRule = c.Rule
		}
	} else {
		e.rules = make([]agent.Rule, c.N)
		for i := range e.rules {
			e.rules[i] = c.Rules.Rule(i)
		}
		// A heterogeneous rule set whose entries are all the same
		// Linear value still takes the devirtualized path.
		if lin, ok := e.rules[0].(agent.Linear); ok {
			e.sharedLinear, e.devirt = lin, true
			for _, rl := range e.rules[1:] {
				if l2, ok := rl.(agent.Linear); !ok || l2 != lin {
					e.sharedLinear, e.devirt = agent.Linear{}, false
					break
				}
			}
		}
	}
	// Validate the sampling-table family once: the per-step vectors
	// (1−µ)Q_j + µ/m stay in it by construction.
	samplingProbs(e.probs, e.q, e.mu)
	if err := e.table.Rebuild(e.probs); err != nil {
		return nil, fmt.Errorf("population: build sampling table: %w", err)
	}
	return e, nil
}

// N returns the population size.
func (e *AgentEngine) N() int { return e.n }

// Participation returns the committed fraction at the latest step.
func (e *AgentEngine) Participation() float64 { return e.participationOf(e.n) }

// Reset implements Engine.Reset.
func (e *AgentEngine) Reset(seed uint64) { e.reset(seed) }

// Step advances one time step.
func (e *AgentEngine) Step() error {
	// Stage 1: each agent picks an option to consider. The alias table
	// is rebuilt in place — same construction, zero steady-state
	// allocation.
	samplingProbs(e.probs, e.q, e.mu)
	if err := e.table.Rebuild(e.probs); err != nil {
		return fmt.Errorf("population: build sampling table: %w", err)
	}
	r := e.r
	e.table.SampleInto(r, e.choice)

	// Fresh rewards for the new step.
	if err := e.environ.Step(r, e.rewards); err != nil {
		return fmt.Errorf("population: environment step: %w", err)
	}
	e.accountGroupReward()

	// Stage 2: adoption decisions.
	for j := range e.next {
		e.next[j] = 0
	}
	switch {
	case e.devirt:
		// Shared agent.Linear: precompute the per-option adoption
		// probability (β on a good signal, α on a bad one) and draw
		// one Bernoulli per agent — the exact draw sequence
		// Linear.Adopt consumes, without the interface dispatch.
		alpha, beta := e.sharedLinear.Alpha(), e.sharedLinear.Beta()
		if alpha > 0 && beta < 1 {
			// Both probabilities interior: every agent consumes
			// exactly one uniform, so the whole stage runs in the
			// register-resident bulk kernel against 2⁵³-scaled
			// thresholds (an exact scaling; see ThresholdCountInto).
			const scale = 1 << 53
			for j, rew := range e.rewards {
				if rew >= 1 {
					e.padopt[j] = beta * scale
				} else {
					e.padopt[j] = alpha * scale
				}
			}
			r.ThresholdCountInto(e.padopt, e.choice, e.next, e.stripes)
		} else {
			// A boundary probability (α = 0 or β = 1) consumes no
			// draw, exactly like Bernoulli's clamps.
			for j, rew := range e.rewards {
				if rew >= 1 {
					e.padopt[j] = beta
				} else {
					e.padopt[j] = alpha
				}
			}
			x := r.Hoist()
			choice, padopt, next := e.choice, e.padopt, e.next
			for _, j := range choice {
				p := padopt[j]
				if p > 0 && (p >= 1 || x.Float64() < p) {
					next[j]++
				}
			}
			x.StoreTo(r)
		}
	case e.rules != nil:
		for i := 0; i < e.n; i++ {
			j := e.choice[i]
			if e.rules[i].Adopt(r, e.rewards[j]) {
				e.next[j]++
			}
		}
	default:
		rule := e.sharedRule
		for i := 0; i < e.n; i++ {
			j := e.choice[i]
			if rule.Adopt(r, e.rewards[j]) {
				e.next[j]++
			}
		}
	}
	e.next = e.commitCounts(e.next)
	return nil
}

// AggregateEngine advances per-option counts directly: stage one is a
// multinomial split of the N sampling decisions, stage two a binomial
// thinning per option. This is exactly the law of AgentEngine with a
// shared rule, at O(m) cost per step.
type AggregateEngine struct {
	common
	n       int
	alpha   dist.Thinning // stage-2 adoption draw at p = α
	beta    dist.Thinning // stage-2 adoption draw at p = β
	sampler *dist.MultinomialSampler
	sampled []int // scratch: stage-1 multinomial counts
	next    []int // scratch: new committed counts
}

var _ Engine = (*AggregateEngine)(nil)

// NewAggregateEngine validates the config and builds the count-level
// engine. It requires a shared adoption rule.
func NewAggregateEngine(c Config) (*AggregateEngine, error) {
	m, err := c.validate(true)
	if err != nil {
		return nil, err
	}
	if c.Rules != nil {
		return nil, fmt.Errorf("%w: AggregateEngine requires a homogeneous rule", ErrBadConfig)
	}
	e := &AggregateEngine{
		common:  newCommon(&c, m),
		n:       c.N,
		alpha:   dist.NewThinning(c.Rule.Alpha()),
		beta:    dist.NewThinning(c.Rule.Beta()),
		sampled: make([]int, m),
		next:    make([]int, m),
	}
	// Validate the stage-1 distribution family once; SampleInto then
	// draws with no per-step validation or allocation.
	samplingProbs(e.probs, e.q, e.mu)
	e.sampler, err = dist.NewMultinomialSampler(e.probs)
	if err != nil {
		return nil, fmt.Errorf("population: stage-1 multinomial: %w", err)
	}
	return e, nil
}

// N returns the population size.
func (e *AggregateEngine) N() int { return e.n }

// Participation returns the committed fraction at the latest step.
func (e *AggregateEngine) Participation() float64 { return e.participationOf(e.n) }

// Reset implements Engine.Reset.
func (e *AggregateEngine) Reset(seed uint64) { e.reset(seed) }

// Step advances one time step.
func (e *AggregateEngine) Step() error {
	samplingProbs(e.probs, e.q, e.mu)
	e.sampler.SampleInto(e.r, e.n, e.probs, e.sampled)

	if err := e.environ.Step(e.r, e.rewards); err != nil {
		return fmt.Errorf("population: environment step: %w", err)
	}
	e.accountGroupReward()

	// Stage 2: binomial thinning per option. α and β were validated
	// into [0, 1] by the rule's constructor, so the unchecked sampler
	// is safe — and draw-for-draw identical to the checked one.
	for j, s := range e.sampled {
		t := &e.alpha
		if e.rewards[j] >= 1 {
			t = &e.beta
		}
		e.next[j] = t.Draw(e.r, s)
	}
	e.next = e.commitCounts(e.next)
	return nil
}

// Run advances an engine T steps and returns the time-averaged group
// reward (1/T)·Σ_t Σ_j Q^{t−1}_j R^t_j.
func Run(e Engine, steps int) (avgGroupReward float64, err error) {
	if e == nil || steps <= 0 {
		return 0, fmt.Errorf("%w: run engine=%v steps=%d", ErrBadConfig, e, steps)
	}
	before := e.CumulativeGroupReward()
	for i := 0; i < steps; i++ {
		if err := e.Step(); err != nil {
			return 0, err
		}
	}
	return (e.CumulativeGroupReward() - before) / float64(steps), nil
}
