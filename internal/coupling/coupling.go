// Package coupling implements the finite/infinite coupling of the
// paper's Lemma 4.5: the finite-population dynamics and the
// infinite-population stochastic MWU process are driven by the *same*
// realized reward sequence, and the trajectories are compared through
// the multiplicative closeness measure max_j |P^t_j / Q^t_j − 1|.
//
// Because the infinite process is deterministic given the rewards, the
// coupling is exact: each finite-population step draws rewards once and
// feeds the identical vector to the infinite process.
package coupling

import (
	"errors"
	"fmt"

	"repro/internal/agent"
	"repro/internal/env"
	"repro/internal/infinite"
	"repro/internal/population"
	"repro/internal/regret"
	"repro/internal/stats"
)

// ErrBadConfig reports an invalid coupling configuration.
var ErrBadConfig = errors.New("coupling: invalid config")

// Config parameterizes a coupled run.
type Config struct {
	// N is the finite population size.
	N int
	// Mu is the exploration probability.
	Mu float64
	// Rule is the shared adoption rule.
	Rule agent.Rule
	// Qualities are the option success probabilities η.
	Qualities []float64
	// Steps is the horizon T.
	Steps int
	// Seed drives all randomness.
	Seed uint64
	// UseAgentEngine selects the per-agent finite engine instead of the
	// aggregate one.
	UseAgentEngine bool
}

// Result captures one coupled trajectory.
type Result struct {
	// Deviation[t] is max_j |P^{t+1}_j/Q^{t+1}_j − 1| after step t+1.
	Deviation []float64
	// Bound[t] is Lemma 4.5's bound 5^{t+1}·δ′′ (saturated at +Inf for
	// large t; it grows geometrically and is only meaningful early).
	Bound []float64
	// FinitePopularity[t] is Q^{t+1}.
	FinitePopularity [][]float64
	// InfiniteDistribution[t] is P^{t+1}.
	InfiniteDistribution [][]float64
	// DeltaDoublePrime is the per-step closeness scale δ′′ of the lemma.
	DeltaDoublePrime float64
}

// Run executes a coupled finite/infinite trajectory.
func Run(c Config) (*Result, error) {
	if c.Steps <= 0 {
		return nil, fmt.Errorf("%w: steps=%d", ErrBadConfig, c.Steps)
	}
	if c.Rule == nil {
		return nil, fmt.Errorf("%w: nil rule", ErrBadConfig)
	}
	environ, err := env.NewIIDBernoulli(c.Qualities)
	if err != nil {
		return nil, fmt.Errorf("coupling: %w", err)
	}

	popCfg := population.Config{
		N:    c.N,
		Mu:   c.Mu,
		Rule: c.Rule,
		Env:  environ,
		Seed: c.Seed,
	}
	var fin population.Engine
	if c.UseAgentEngine {
		fin, err = population.NewAgentEngine(popCfg)
	} else {
		fin, err = population.NewAggregateEngine(popCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("coupling: finite engine: %w", err)
	}

	// The infinite process consumes the finite run's realized rewards,
	// so its own environment is never stepped; a placeholder carrying
	// the same option count is enough.
	placeholder, err := env.NewIIDBernoulli(c.Qualities)
	if err != nil {
		return nil, fmt.Errorf("coupling: %w", err)
	}
	inf, err := infinite.New(infinite.Config{
		Mu:   c.Mu,
		Rule: c.Rule,
		Env:  placeholder,
		Seed: c.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("coupling: infinite process: %w", err)
	}

	dpp, err := regret.CouplingDeltaDoublePrime(len(c.Qualities), c.N, c.Rule.Beta(), c.Mu)
	if err != nil {
		return nil, fmt.Errorf("coupling: %w", err)
	}

	res := &Result{
		Deviation:            make([]float64, 0, c.Steps),
		Bound:                make([]float64, 0, c.Steps),
		FinitePopularity:     make([][]float64, 0, c.Steps),
		InfiniteDistribution: make([][]float64, 0, c.Steps),
		DeltaDoublePrime:     dpp,
	}
	for t := 1; t <= c.Steps; t++ {
		if err := fin.Step(); err != nil {
			return nil, fmt.Errorf("coupling: finite step %d: %w", t, err)
		}
		if err := inf.StepWithRewards(fin.LastRewards()); err != nil {
			return nil, fmt.Errorf("coupling: infinite step %d: %w", t, err)
		}
		q := fin.Popularity()
		p := inf.Distribution()
		dev, err := stats.MaxRatioDeviation(p, q)
		if err != nil {
			return nil, fmt.Errorf("coupling: deviation at step %d: %w", t, err)
		}
		bound, err := regret.CouplingBound(t, dpp)
		if err != nil {
			return nil, fmt.Errorf("coupling: bound at step %d: %w", t, err)
		}
		res.Deviation = append(res.Deviation, dev)
		res.Bound = append(res.Bound, bound)
		res.FinitePopularity = append(res.FinitePopularity, q)
		res.InfiniteDistribution = append(res.InfiniteDistribution, p)
	}
	return res, nil
}
