// Package infinite implements the paper's infinite-population
// distributed learning dynamics (Section 4.2), equivalently the
// stochastic multiplicative-weights process
//
//	W^{t+1}_j = ((1−µ)W^t_j + (µ/m)·Σ_k W^t_k) · β^{R^{t+1}_j}(1−β)^{1−R^{t+1}_j},
//	P^t_j     = W^t_j / Σ_k W^t_k,
//
// with W^0_j = 1. Once the rewards R^t are fixed, the process is fully
// deterministic — the only randomness lives in the environment. That is
// exactly what makes the Lemma 4.5 coupling possible: the finite
// population records its realized rewards, and this process replays
// them.
//
// The implementation keeps the normalized distribution P and the
// log-potential ln Φ^t = ln Σ_j W^t_j instead of the raw weights. Raw
// linear-space weights shrink by a factor ≤ β < 1 every step and
// underflow to zero after a few thousand steps; the normalized form is
// exact for P and keeps Φ available (in log space) for the potential
// argument of the Theorem 4.3 proof. The raw linear-space weights can be
// tracked optionally to demonstrate the failure mode (see the log-space
// ablation bench).
package infinite

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/env"
	"repro/internal/rng"
)

// ErrBadConfig reports an invalid process configuration.
var ErrBadConfig = errors.New("infinite: invalid config")

// Config parameterizes the process.
type Config struct {
	// Mu is the exploration probability µ ∈ [0, 1].
	Mu float64
	// Rule supplies the adoption probabilities (β on good signals, α on
	// bad ones). The paper's analysis uses α = 1−β.
	Rule agent.Rule
	// Env generates the per-step quality signals.
	Env env.Environment
	// InitialP optionally sets P^0 (a probability vector of length m).
	// When nil the process starts uniform, matching W^0_j = 1.
	InitialP []float64
	// Seed drives the environment's randomness.
	Seed uint64
	// TrackRawWeights additionally maintains unnormalized linear-space
	// weights, which underflow over long horizons; used only by the
	// numerical-stability ablation.
	TrackRawWeights bool
}

// Process is the stochastic MWU dynamics. Create with New.
type Process struct {
	m       int
	mu      float64
	alpha   float64
	beta    float64
	environ env.Environment
	r       *rng.RNG

	// Hot-loop invariants, hoisted out of the per-option update:
	// keep = 1−µ and explore = µ/m, so V_j = keep·P_j + explore.
	keep    float64
	explore float64

	t       int
	p       []float64
	initP   []float64 // copy of Config.InitialP (nil = uniform start)
	logPhi  float64
	rewards []float64
	scratch []float64

	groupRew  float64
	cumReward float64

	rawW []float64 // nil unless TrackRawWeights
}

// New validates the config and returns a fresh process.
func New(c Config) (*Process, error) {
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
	proc := &Process{
		m:       m,
		mu:      c.Mu,
		alpha:   c.Rule.Alpha(),
		beta:    c.Rule.Beta(),
		environ: c.Env,
		r:       rng.New(c.Seed),
		keep:    1 - c.Mu,
		explore: c.Mu / float64(m),
		p:       make([]float64, m),
		initP:   initP,
		rewards: make([]float64, m),
		scratch: make([]float64, m),
	}
	if c.TrackRawWeights {
		proc.rawW = make([]float64, m)
	}
	proc.resetState()
	return proc, nil
}

// resetState installs the t = 0 state (shared by New and Reset).
func (p *Process) resetState() {
	p.t = 0
	p.groupRew = 0
	p.cumReward = 0
	p.logPhi = math.Log(float64(p.m)) // Φ^0 = m when W^0_j = 1
	for j := range p.rewards {
		p.rewards[j] = 0
	}
	if p.initP != nil {
		copy(p.p, p.initP)
	} else {
		for j := range p.p {
			p.p[j] = 1 / float64(p.m)
		}
	}
	if p.rawW != nil {
		for j := range p.rawW {
			p.rawW[j] = 1
		}
	}
}

// Reset reinitializes the process in place to the state New would
// produce with the same config and the given seed, reusing all buffers:
// a reset process replays a fresh process bit for bit. The environment
// is NOT reset — only processes driven by stateless environments (the
// IID Bernoulli default) may be reset.
func (p *Process) Reset(seed uint64) {
	p.r.Reseed(seed)
	p.resetState()
}

// T returns the number of completed steps.
func (p *Process) T() int { return p.t }

// Options returns the number of options m.
func (p *Process) Options() int { return p.m }

// Distribution returns a copy of P^t.
func (p *Process) Distribution() []float64 {
	return p.AppendPopularity(make([]float64, 0, p.m))
}

// AppendPopularity appends P^t, the infinite population's popularity
// vector, to dst and returns it, allocating only when dst lacks
// capacity — the no-copy accessor for per-step internal callers.
func (p *Process) AppendPopularity(dst []float64) []float64 { return append(dst, p.p...) }

// LastRewards returns a copy of the latest reward vector.
func (p *Process) LastRewards() []float64 {
	return p.AppendLastRewards(make([]float64, 0, p.m))
}

// AppendLastRewards appends R^t to dst and returns it (see
// AppendPopularity).
func (p *Process) AppendLastRewards(dst []float64) []float64 { return append(dst, p.rewards...) }

// LogPotential returns ln Φ^t, the log of the total weight.
func (p *Process) LogPotential() float64 { return p.logPhi }

// GroupReward returns the latest step's Σ_j P^{t−1}_j R^t_j.
func (p *Process) GroupReward() float64 { return p.groupRew }

// CumulativeGroupReward returns Σ_{s≤t} Σ_j P^{s−1}_j R^s_j.
func (p *Process) CumulativeGroupReward() float64 { return p.cumReward }

// RawWeights returns a copy of the unnormalized linear-space weights, or
// nil if TrackRawWeights was not set.
func (p *Process) RawWeights() []float64 {
	if p.rawW == nil {
		return nil
	}
	out := make([]float64, p.m)
	copy(out, p.rawW)
	return out
}

// Step draws the next reward vector from the environment and applies the
// multiplicative update.
func (p *Process) Step() error {
	if err := p.environ.Step(p.r, p.rewards); err != nil {
		return fmt.Errorf("infinite: environment step: %w", err)
	}
	p.applyUpdate()
	return nil
}

// StepWithRewards applies the update against an externally supplied
// reward vector (the coupling construction).
func (p *Process) StepWithRewards(rewards []float64) error {
	if len(rewards) != p.m {
		return fmt.Errorf("%w: rewards length %d, want %d", ErrBadConfig, len(rewards), p.m)
	}
	copy(p.rewards, rewards)
	p.applyUpdate()
	return nil
}

func (p *Process) applyUpdate() {
	// Group reward uses P^{t−1}.
	g := 0.0
	for j, rew := range p.rewards {
		g += p.p[j] * rew
	}
	p.groupRew = g
	p.cumReward += g

	// V_j = (1−µ)P_j + µ/m, then multiply by the adoption factor.
	// keep/explore are the hoisted invariants; the arithmetic (and so
	// every emitted bit) is unchanged.
	total := 0.0
	for j := range p.p {
		factor := p.alpha
		if p.rewards[j] >= 1 {
			factor = p.beta
		}
		v := (p.keep*p.p[j] + p.explore) * factor
		p.scratch[j] = v
		total += v
	}
	// Φ^{t+1} = Φ^t · Σ_j ((1−µ)P_j + µ/m)·factor_j.
	if total > 0 {
		p.logPhi += math.Log(total)
		for j := range p.p {
			p.p[j] = p.scratch[j] / total
		}
	}
	// total == 0 can only happen when α = 0 and every reward is bad; we
	// keep the previous distribution, mirroring the finite engine's
	// nobody-committed fallback.

	if p.rawW != nil {
		sum := 0.0
		for _, w := range p.rawW {
			sum += w
		}
		for j := range p.rawW {
			factor := p.alpha
			if p.rewards[j] >= 1 {
				factor = p.beta
			}
			p.rawW[j] = (p.keep*p.rawW[j] + p.explore*sum) * factor
		}
	}
	p.t++
}

// MinMass returns the analytic lower bound on every coordinate of P^t
// for t ≥ 1: P_j ≥ (µ/m)·α / β (the worst case is a bad signal for j
// and good signals everywhere else). It is 0 when α = 0 or µ = 0.
func (p *Process) MinMass() float64 {
	if p.beta == 0 {
		return 0
	}
	return p.mu / float64(p.m) * p.alpha / p.beta
}

// Run advances the process steps times and returns the time-averaged
// group reward over those steps.
func Run(p *Process, steps int) (avgGroupReward float64, err error) {
	if p == nil || steps <= 0 {
		return 0, fmt.Errorf("%w: run steps=%d", ErrBadConfig, steps)
	}
	before := p.cumReward
	for i := 0; i < steps; i++ {
		if err := p.Step(); err != nil {
			return 0, err
		}
	}
	return (p.cumReward - before) / float64(steps), nil
}
