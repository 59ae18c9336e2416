package experiment

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/dist"
	"repro/internal/env"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Ablations lists the design-choice experiments of the claim index
// (package comment) that produce tables (the purely timing-based ones
// live as benchmarks next to their packages). cmd/repro runs them with
// -ablations.
func Ablations() []Spec {
	return []Spec{
		{ID: "A01", Title: "Engine ablation: per-agent vs aggregate (same law, different cost)", Run: func() (*Result, error) { return A01Engines(DefaultA01Options()) }},
		{ID: "A02", Title: "Binomial sampler ablation: direct vs geometric vs BTRS accuracy", Run: func() (*Result, error) { return A02Binomial(DefaultA02Options()) }},
	}
}

// A01Options configures the engine ablation.
type A01Options struct {
	Ns    []int
	Steps int
	Reps  int
	Seed  uint64
}

// DefaultA01Options sizes the ablation for seconds-scale runtime.
func DefaultA01Options() A01Options {
	return A01Options{Ns: []int{100, 1000, 10000}, Steps: 15, Reps: 100, Seed: 41}
}

// A01Engines verifies the central engine design decision: the
// AgentEngine (O(N) per step) and the AggregateEngine (O(m) per step)
// implement the same stochastic law. For each N it compares the mean
// best-option popularity after a fixed number of steps across many
// replications, and reports the per-step wall-clock cost of each
// engine.
func A01Engines(opt A01Options) (*Result, error) {
	if len(opt.Ns) == 0 || opt.Steps <= 0 || opt.Reps <= 0 {
		return nil, fmt.Errorf("%w: A01 %+v", ErrBadOptions, opt)
	}
	rule, err := agent.NewSymmetric(0.65)
	if err != nil {
		return nil, err
	}
	qualities := []float64{0.85, 0.35}

	table, err := NewTable("A01 Engine ablation (per-agent vs aggregate)",
		"N", "agent mean Q1", "aggregate mean Q1", "|diff|", "tolerance", "agree", "agent ns/step", "aggregate ns/step")
	if err != nil {
		return nil, err
	}
	table.Note = "same stochastic law: means agree within Monte-Carlo error; cost separates as N grows"
	metrics := map[string]float64{}

	for _, n := range opt.Ns {
		n := n
		runOne := func(useAgent bool, seedBase uint64) (stats.Summary, time.Duration, error) {
			var s stats.Summary
			var elapsed time.Duration
			for rep := 0; rep < opt.Reps; rep++ {
				environ, err := env.NewIIDBernoulli(qualities)
				if err != nil {
					return s, 0, err
				}
				cfg := population.Config{
					N: n, Mu: 0.05, Rule: rule, Env: environ,
					Seed: SeedFor(seedBase, rep),
				}
				var e population.Engine
				if useAgent {
					e, err = population.NewAgentEngine(cfg)
				} else {
					e, err = population.NewAggregateEngine(cfg)
				}
				if err != nil {
					return s, 0, err
				}
				start := time.Now()
				for i := 0; i < opt.Steps; i++ {
					if err := e.Step(); err != nil {
						return s, 0, err
					}
				}
				elapsed += time.Since(start)
				s.Add(e.Popularity()[0])
			}
			return s, elapsed / time.Duration(opt.Reps*opt.Steps), nil
		}
		agentSum, agentCost, err := runOne(true, opt.Seed)
		if err != nil {
			return nil, err
		}
		aggSum, aggCost, err := runOne(false, opt.Seed+999)
		if err != nil {
			return nil, err
		}
		diff := agentSum.Mean() - aggSum.Mean()
		if diff < 0 {
			diff = -diff
		}
		tol := 4 * sqrt(agentSum.Variance()/float64(opt.Reps)+aggSum.Variance()/float64(opt.Reps))
		agree := diff <= tol
		metrics[fmt.Sprintf("diff/N=%d", n)] = diff
		metrics[fmt.Sprintf("tol/N=%d", n)] = tol
		metrics[fmt.Sprintf("speedup/N=%d", n)] = float64(agentCost) / float64(aggCost)
		if err := table.AddRow(I(n), F(agentSum.Mean()), F(aggSum.Mean()), F(diff), F(tol),
			B(agree), I(int(agentCost.Nanoseconds())), I(int(aggCost.Nanoseconds()))); err != nil {
			return nil, err
		}
	}
	return &Result{ID: "A01", Table: table, Metrics: metrics}, nil
}

// A02Options configures the binomial-sampler ablation.
type A02Options struct {
	Trials int
	Seed   uint64
}

// DefaultA02Options sizes the ablation for seconds-scale runtime.
func DefaultA02Options() A02Options {
	return A02Options{Trials: 200000, Seed: 42}
}

// A02Binomial validates that all three internal binomial regimes
// (direct summation, geometric skips, BTRS rejection) produce the
// correct first two moments at their regime boundaries — the property
// the aggregate engine's exactness rests on.
func A02Binomial(opt A02Options) (*Result, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("%w: A02 %+v", ErrBadOptions, opt)
	}
	table, err := NewTable("A02 Binomial sampler ablation",
		"regime", "n", "p", "mean err (sd units)", "var ratio", "ok")
	if err != nil {
		return nil, err
	}
	table.Note = "mean error in units of the standard error; variance ratio vs np(1-p)"
	metrics := map[string]float64{}

	cases := []struct {
		regime string
		n      int
		p      float64
	}{
		{regime: "direct", n: 30, p: 0.3},
		{regime: "geometric", n: 500, p: 0.004},
		{regime: "btrs (boundary)", n: 64, p: 0.4},
		{regime: "btrs (large)", n: 1000000, p: 0.25},
		{regime: "symmetry (p>1/2)", n: 1000, p: 0.9},
	}
	r := rng.New(opt.Seed)
	for _, c := range cases {
		var s stats.Summary
		for trial := 0; trial < opt.Trials; trial++ {
			k, err := dist.Binomial(r, c.n, c.p)
			if err != nil {
				return nil, err
			}
			s.Add(float64(k))
		}
		wantMean := dist.BinomialMean(c.n, c.p)
		wantVar := dist.BinomialVariance(c.n, c.p)
		se := sqrt(wantVar / float64(opt.Trials))
		meanErr := (s.Mean() - wantMean) / se
		varRatio := s.Variance() / wantVar
		ok := abs(meanErr) < 5 && varRatio > 0.95 && varRatio < 1.05
		metrics["meanerr/"+c.regime] = meanErr
		metrics["varratio/"+c.regime] = varRatio
		if err := table.AddRow(c.regime, I(c.n), F(c.p), F2(meanErr), F(varRatio), B(ok)); err != nil {
			return nil, err
		}
	}
	return &Result{ID: "A02", Table: table, Metrics: metrics}, nil
}
