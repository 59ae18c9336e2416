// Package core is the library's public entry point: it wires the
// substrate packages into the paper's two headline objects — the
// finite-population social-learning dynamics (Theorem 4.4) and its
// infinite-population stochastic-MWU limit (Theorem 4.3) — behind one
// configuration type, and exposes the theorems' closed-form bounds.
//
// Quick use:
//
//	g, err := core.New(core.Config{
//		N:         10_000,
//		Qualities: []float64{0.9, 0.5, 0.5},
//		Beta:      0.7,
//	})
//	report, err := g.Run(1_000)
//	fmt.Println(report.Regret, report.Popularity)
//
// Config.Mu defaults to the largest exploration rate the theorems allow
// (δ²/6); Config.Alpha defaults to the paper's symmetric 1−β; N = 0
// selects the infinite-population process.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/infinite"
	"repro/internal/netpop"
	"repro/internal/population"
	"repro/internal/regret"
)

// ErrBadConfig reports an invalid group configuration.
var ErrBadConfig = errors.New("core: invalid config")

// EngineKind selects the finite-population engine implementation.
type EngineKind int

// Available engines.
const (
	// EngineAggregate advances per-option counts (O(m) per step);
	// the default, suitable for N up to millions.
	EngineAggregate EngineKind = iota
	// EngineAgent walks every individual (O(N) per step), the paper's
	// per-individual dynamics as written; useful for small-N studies.
	EngineAgent
)

// Config describes one social-learning system.
type Config struct {
	// N is the population size; 0 selects the infinite-population
	// stochastic-MWU process.
	N int
	// Qualities are the option success probabilities η_j. They need not
	// be sorted; Regret is always measured against the maximum.
	Qualities []float64
	// Beta is the adoption probability on a good signal (1/2 < β < 1
	// for the theorems; β = 1/2 is allowed but gives δ = 0).
	Beta float64
	// Alpha is the adoption probability on a bad signal. Zero means
	// "default to the paper's symmetric rule α = 1−β". To force a true
	// zero, set AlphaIsZero.
	Alpha float64
	// AlphaIsZero forces α = 0 (the pure sampling-ablation regime).
	AlphaIsZero bool
	// Mu is the exploration rate. Zero means "default to δ²/6, the
	// largest value the theorems permit". To force µ = 0 (no
	// exploration; the group can fixate), set MuIsZero.
	Mu float64
	// MuIsZero forces µ = 0.
	MuIsZero bool
	// Engine selects the finite-population implementation.
	Engine EngineKind
	// Network optionally restricts stage-one sampling to graph
	// neighbors (the conclusion's extension). When set, the node count
	// is the population size (N is ignored) and the lazy neighbor-
	// sampling dynamics of internal/netpop drives the group.
	Network *graph.Graph
	// Environment optionally overrides the default IID Bernoulli
	// environment built from Qualities (e.g. a Drifting or Switching
	// environment). When set, Qualities may be nil.
	Environment env.Environment
	// Seed drives all randomness.
	Seed uint64
}

// Group is a running social-learning system (finite, infinite, or
// network-restricted).
type Group struct {
	e       engine
	environ env.Environment
	eta1    float64
	rule    agent.Linear
	mu      float64
}

// engine is one v1-order trajectory: population.AgentEngine,
// population.AggregateEngine, infinite.Process or netpop.Dynamics.
// Every engine zeroes its cumulative reward on construction and Reset
// and adds each step's group reward to it, so CumulativeGroupReward
// equals a caller's running sum of GroupReward bit for bit.
type engine interface {
	Step() error
	T() int
	GroupReward() float64
	CumulativeGroupReward() float64
	AppendPopularity(dst []float64) []float64
	Reset(seed uint64)
}

// Report summarizes a completed run window.
type Report struct {
	// Steps is the number of steps in the window.
	Steps int
	// AverageGroupReward is (1/T)·Σ_t Σ_j Q^{t−1}_j R^t_j.
	AverageGroupReward float64
	// Regret is η_1 − AverageGroupReward, the paper's average regret
	// (a single-run realization; average over seeds for expectations).
	Regret float64
	// Popularity is the final popularity / distribution vector.
	Popularity []float64
}

// resolve computes the effective environment, adoption rule, and
// exploration rate, applying the paper defaults (α = 1−β, µ = δ²/6)
// and validating each. It allocates only O(m) — never per-agent or
// per-edge state — so it is safe on a request-validation path.
func (c Config) resolve() (env.Environment, agent.Linear, float64, error) {
	environ := c.Environment
	if environ == nil {
		var err error
		environ, err = env.NewIIDBernoulli(c.Qualities)
		if err != nil {
			return nil, agent.Linear{}, 0, fmt.Errorf("core: %w", err)
		}
	}
	if environ.Options() <= 0 {
		return nil, agent.Linear{}, 0, fmt.Errorf("%w: environment reports no options", ErrBadConfig)
	}

	alpha := c.Alpha
	if alpha == 0 && !c.AlphaIsZero {
		alpha = 1 - c.Beta
	}
	rule, err := agent.NewLinear(alpha, c.Beta)
	if err != nil {
		return nil, agent.Linear{}, 0, fmt.Errorf("core: %w", err)
	}

	mu := c.Mu
	if mu == 0 && !c.MuIsZero {
		if c.Beta > 0.5 && c.Beta < 1 {
			delta, err := regret.Delta(c.Beta)
			if err != nil {
				return nil, agent.Linear{}, 0, fmt.Errorf("core: %w", err)
			}
			mu, err = regret.MaxMu(delta)
			if err != nil {
				return nil, agent.Linear{}, 0, fmt.Errorf("core: %w", err)
			}
		} else {
			mu = 0.05
		}
	}
	if math.IsNaN(mu) || mu < 0 || mu > 1 {
		return nil, agent.Linear{}, 0, fmt.Errorf("%w: mu=%v", ErrBadConfig, mu)
	}
	return environ, rule, mu, nil
}

// Validate checks every constraint New enforces without materializing
// engine state: New allocates O(N) per-agent state (agent engine) or
// O(nodes + edges) network state, while Validate costs O(m). Validate
// returning nil means New succeeds on the same config.
func (c Config) Validate() error {
	_, _, _, err := c.resolve()
	if err != nil {
		return err
	}
	if c.Network != nil {
		if c.Network.N() == 0 {
			return fmt.Errorf("%w: empty network", ErrBadConfig)
		}
		return nil
	}
	if c.N == 0 {
		return nil
	}
	if c.N < 0 {
		return fmt.Errorf("%w: N=%d", ErrBadConfig, c.N)
	}
	switch c.Engine {
	case EngineAggregate, EngineAgent:
		return nil
	default:
		return fmt.Errorf("%w: unknown engine %d", ErrBadConfig, c.Engine)
	}
}

// New validates the config and constructs the group.
func New(c Config) (*Group, error) {
	t, err := c.template()
	if err != nil {
		return nil, err
	}
	return t.Group(c.N, c.Engine, c.Seed)
}

// Template is a pre-resolved Config for parameter sweeps: it runs
// resolve once — environment construction, adoption-rule validation,
// the α = 1−β and µ = δ²/6 defaults, the η_1 benchmark — and then
// stamps out Groups that differ only in the variant axes (population
// size, engine, seed). Every Group shares the template's environment,
// so NewTemplate requires the default IID Bernoulli environment (built
// from Qualities), which is immutable and safe for concurrent Step
// calls; custom environments may carry per-run state (Drifting,
// Switching) and are rejected. A Config.Network is allowed: the graph
// is immutable, so every group and block the template builds shares
// the one graph (each keeps its own dynamics state), exactly as a
// BlockGroup's lanes do.
//
// Group(n, engine, seed) is equivalent to New with the same Config —
// the constructed group reproduces a direct New(...).Run(...) bit for
// bit — minus the per-group resolve cost.
type Template struct {
	environ env.Environment
	rule    agent.Linear
	mu      float64
	eta1    float64
	network *graph.Graph
}

// NewTemplate resolves the sweep-invariant parts of c. The variant
// fields (N, Engine, Seed) of c are ignored; pass them to Group.
func NewTemplate(c Config) (*Template, error) {
	if c.Environment != nil {
		return nil, fmt.Errorf("%w: template requires the default IID environment (custom environments may be stateful and cannot be shared across sweep runs)", ErrBadConfig)
	}
	return c.template()
}

// template resolves c without NewTemplate's shared-environment check;
// New builds its one group from it.
func (c Config) template() (*Template, error) {
	environ, rule, mu, err := c.resolve()
	if err != nil {
		return nil, err
	}
	eta1 := 0.0
	for _, q := range environ.Qualities() {
		if q > eta1 {
			eta1 = q
		}
	}
	return &Template{environ: environ, rule: rule, mu: mu, eta1: eta1, network: c.Network}, nil
}

// Group builds one group for a variant of the template's family: a
// network family runs the neighbor-sampling dynamics on the shared
// graph (n and kind are ignored), n = 0 selects the
// infinite-population process, otherwise kind selects the finite
// implementation. The result is identical to New with the
// corresponding Config.
func (t *Template) Group(n int, kind EngineKind, seed uint64) (*Group, error) {
	e, err := t.engine(n, kind, seed)
	if err != nil {
		return nil, err
	}
	return &Group{e: e, environ: t.environ, eta1: t.eta1, rule: t.rule, mu: t.mu}, nil
}

// engine builds the v1-order engine Group(n, kind, seed) holds; a v1
// block holds one per lane.
func (t *Template) engine(n int, kind EngineKind, seed uint64) (engine, error) {
	var e engine
	var err error
	switch {
	case t.network != nil:
		e, err = netpop.New(netpop.Config{
			Graph: t.network, Mu: t.mu, Rule: t.rule, Env: t.environ, Seed: seed,
		})
	case n == 0:
		e, err = infinite.New(infinite.Config{
			Mu: t.mu, Rule: t.rule, Env: t.environ, Seed: seed,
		})
	case kind == EngineAggregate:
		e, err = population.NewAggregateEngine(t.popConfig(n, seed))
	case kind == EngineAgent:
		e, err = population.NewAgentEngine(t.popConfig(n, seed))
	default:
		return nil, fmt.Errorf("%w: unknown engine %d", ErrBadConfig, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e, nil
}

// popConfig is the finite engines' config for population size n.
func (t *Template) popConfig(n int, seed uint64) population.Config {
	return population.Config{N: n, Mu: t.mu, Rule: t.rule, Env: t.environ, Seed: seed}
}

// Mu returns the effective exploration rate.
func (g *Group) Mu() float64 { return g.mu }

// Rule returns the effective adoption rule.
func (g *Group) Rule() agent.Linear { return g.rule }

// T returns the number of completed steps.
func (g *Group) T() int { return g.e.T() }

// Options returns the number of options m.
func (g *Group) Options() int { return g.environ.Options() }

// Popularity returns the current popularity vector (Q^t for finite
// groups, P^t for the infinite process, held-option fractions for
// network groups).
func (g *Group) Popularity() []float64 {
	return g.e.AppendPopularity(make([]float64, 0, g.Options()))
}

// AppendPopularity appends the current popularity vector to dst and
// returns it, allocating only when dst lacks capacity — the no-copy
// accessor for per-step callers (trace recording, experiment tables).
func (g *Group) AppendPopularity(dst []float64) []float64 { return g.e.AppendPopularity(dst) }

// Reset reinitializes the group in place to the state New would produce
// with the same config and the given seed, reusing every engine buffer:
// a reset group replays a fresh group's run bit for bit. It requires
// the default IID Bernoulli environment — custom environments may carry
// per-run state the group cannot rewind.
func (g *Group) Reset(seed uint64) error {
	if _, ok := g.environ.(*env.IIDBernoulli); !ok {
		return fmt.Errorf("%w: Reset requires the stateless IID Bernoulli environment", ErrBadConfig)
	}
	g.e.Reset(seed)
	return nil
}

// Step advances one time step.
func (g *Group) Step() error { return g.e.Step() }

// GroupReward returns the latest step's Σ_j Q^{t−1}_j R^t_j.
func (g *Group) GroupReward() float64 { return g.e.GroupReward() }

// BestQuality returns the largest η_j the group is measured against.
func (g *Group) BestQuality() float64 { return g.eta1 }

// Run advances steps steps and reports the window.
func (g *Group) Run(steps int) (Report, error) {
	if steps <= 0 {
		return Report{}, fmt.Errorf("%w: steps=%d", ErrBadConfig, steps)
	}
	before := g.e.CumulativeGroupReward()
	for i := 0; i < steps; i++ {
		if err := g.e.Step(); err != nil {
			return Report{}, err
		}
	}
	avg := (g.e.CumulativeGroupReward() - before) / float64(steps)
	return Report{
		Steps:              steps,
		AverageGroupReward: avg,
		Regret:             g.eta1 - avg,
		Popularity:         g.Popularity(),
	}, nil
}

// Bounds collects every closed-form quantity the paper proves for a
// given (m, β) configuration.
type Bounds struct {
	// Delta is δ = ln(β/(1−β)).
	Delta float64
	// MuMax is the largest exploration rate with 6µ ≤ δ².
	MuMax float64
	// MinHorizon is ⌈ln m/δ²⌉, where the regret bounds take effect.
	MinHorizon int
	// InfiniteRegret is Theorem 4.3's 3δ.
	InfiniteRegret float64
	// FiniteRegret is Theorem 4.4's 6δ.
	FiniteRegret float64
	// HedgeOptimal is the tuned-MWU rate 2·sqrt(ln m/MinHorizon) for
	// comparison at the same horizon.
	HedgeOptimal float64
}

// TheoremBounds computes the paper's bounds for m options and rate β
// (requires 1/2 < β ≤ e/(e+1) for all bounds to be in force).
func TheoremBounds(m int, beta float64) (Bounds, error) {
	delta, err := regret.Delta(beta)
	if err != nil {
		return Bounds{}, err
	}
	muMax, err := regret.MaxMu(delta)
	if err != nil {
		return Bounds{}, err
	}
	horizon, err := regret.MinHorizon(m, delta)
	if err != nil {
		return Bounds{}, err
	}
	var inf3, fin6 float64
	if delta <= 1 {
		inf3, err = regret.InfiniteBound(delta)
		if err != nil {
			return Bounds{}, err
		}
		fin6, err = regret.FiniteBound(delta)
		if err != nil {
			return Bounds{}, err
		}
	} else {
		inf3, fin6 = 3*delta, 6*delta
	}
	hedge, err := regret.HedgeOptimalBound(m, horizon)
	if err != nil {
		return Bounds{}, err
	}
	return Bounds{
		Delta:          delta,
		MuMax:          muMax,
		MinHorizon:     horizon,
		InfiniteRegret: inf3,
		FiniteRegret:   fin6,
		HedgeOptimal:   hedge,
	}, nil
}
