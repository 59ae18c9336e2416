package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/stats"
)

// pinOps is how many leading ops of a timed window the report digest
// covers: a prefix every run reaches, so the digest does not depend on
// how fast the program is.
const pinOps = 100

// pinnedSeed is the seed whose digests pinned.json records.
const pinnedSeed = 1

//go:embed pinned.json
var pinnedJSON []byte

// pinnedDigest returns the digest pinned for a workload at pinnedSeed.
func pinnedDigest(workload string) (string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return "", fmt.Errorf("pinned.json: %w", err)
	}
	pin, ok := pins[workload]
	if !ok {
		return "", fmt.Errorf("pinned.json has no digest for %s", workload)
	}
	return pin, nil
}

// windowDigest hashes the report bytes of the window's first pinOps
// ops, in op order. It is "" unless all of them succeeded.
func windowDigest(w window) string {
	if len(w.outcomes) < pinOps {
		return ""
	}
	h := sha256.New()
	for _, out := range w.outcomes[:pinOps] {
		if !out.ok {
			return ""
		}
		for _, rep := range out.reports {
			h.Write(rep)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepProbe accumulates experiment.RunSweep's own instrumentation over
// the recompute calls: per-task time, busy share of the sweep workers,
// and engine reuse.
type sweepProbe struct {
	mu      sync.Mutex
	taskMs  []float64
	busy    time.Duration
	wall    time.Duration
	workers int
	ctrs    experiment.SweepCounters
}

func (p *sweepProbe) run(proto core.Config, variants []experiment.SweepVariant) ([]experiment.SweepResult, error) {
	var busy time.Duration
	start := time.Now()
	res, err := experiment.RunSweep(context.Background(), proto, variants, experiment.SweepOptions{
		Workers:  p.workers,
		Counters: &p.ctrs,
		OnTask: func(_, _ int, elapsed time.Duration) {
			p.mu.Lock()
			p.taskMs = append(p.taskMs, float64(elapsed)/1e6)
			busy += elapsed
			p.mu.Unlock()
		},
	})
	wall := time.Since(start)
	p.mu.Lock()
	p.busy += busy
	p.wall += wall
	p.mu.Unlock()
	return res, err
}

func (p *sweepProbe) metrics() (taskMs, busyFrac, reuseFrac float64) {
	taskMs = quantile(p.taskMs, 0.5)
	if p.wall > 0 {
		busyFrac = float64(p.busy) / (float64(p.wall) * float64(p.workers))
	}
	if n := p.ctrs.EngineReuses.Load() + p.ctrs.EngineBuilds.Load(); n > 0 {
		reuseFrac = float64(p.ctrs.EngineReuses.Load()) / float64(n)
	}
	return taskMs, busyFrac, reuseFrac
}

// coreConfig maps a spec's family onto core.Config, as the service does.
func coreConfig(spec *service.Spec, seed uint64) core.Config {
	cfg := core.Config{N: spec.N, Qualities: spec.Qualities, Beta: spec.Beta, Seed: seed}
	if spec.Alpha != nil {
		cfg.Alpha, cfg.AlphaIsZero = *spec.Alpha, *spec.Alpha == 0
	}
	if spec.Mu != nil {
		cfg.Mu, cfg.MuIsZero = *spec.Mu, *spec.Mu == 0
	}
	if spec.Engine == "agent" {
		cfg.Engine = core.EngineAgent
	}
	return cfg
}

func sweepVariant(spec *service.Spec) experiment.SweepVariant {
	v := experiment.SweepVariant{N: spec.N, Steps: spec.Steps, Replications: spec.Replications, Seed: spec.Seed, DrawOrder: spec.DrawOrder}
	if spec.Engine == "agent" {
		v.Engine = core.EngineAgent
	}
	return v
}

func reportFrom(hash string, spec *service.Spec, res experiment.SweepResult) *service.Report {
	return &service.Report{
		SpecHash: hash, Steps: spec.Steps, Replications: spec.Replications,
		BestQuality: res.BestQuality, AverageGroupReward: res.AverageGroupReward,
		Regret: res.Regret, RegretStdDev: res.RegretStdDev, Popularity: res.Popularity,
	}
}

// recompute computes op o's reports outside the daemon: through
// experiment.RunSweep for sweeps and non-topology specs, and by direct
// core runs for topology specs.
func recompute(o *op, p *sweepProbe) ([]*service.Report, error) {
	switch {
	case o.sweep != nil:
		spec0 := variantSpec(o.sweep, 0)
		variants := make([]experiment.SweepVariant, len(o.sweep.Variants))
		for i := range variants {
			spec := variantSpec(o.sweep, i)
			spec.Normalize()
			variants[i] = sweepVariant(&spec)
		}
		res, err := p.run(coreConfig(&spec0, 0), variants)
		if err != nil {
			return nil, err
		}
		reps := make([]*service.Report, len(res))
		for i, r := range res {
			if r.Err != nil {
				return nil, r.Err
			}
			spec := variantSpec(o.sweep, i)
			spec.Normalize()
			reps[i] = reportFrom(o.hashes[i], &spec, r)
		}
		return reps, nil
	case o.spec.Topology != nil:
		rep, err := runTopology(o.spec, o.hashes[0])
		return []*service.Report{rep}, err
	default:
		res, err := p.run(coreConfig(o.spec, 0), []experiment.SweepVariant{sweepVariant(o.spec)})
		if err != nil {
			return nil, err
		}
		if res[0].Err != nil {
			return nil, res[0].Err
		}
		return []*service.Report{reportFrom(o.hashes[0], o.spec, res[0])}, nil
	}
}

// runTopology replays a ring-topology spec with core groups: v1 seeds
// replication r with experiment.SeedFor, v2 runs one-lane blocks at
// lane r; both merge in replication order.
func runTopology(spec *service.Spec, hash string) (*service.Report, error) {
	var regrets stats.Summary
	var rewardMean, bestQ float64
	var popSum []float64
	for rep := 0; rep < spec.Replications; rep++ {
		g, err := graph.Ring(spec.Topology.Nodes)
		if err != nil {
			return nil, err
		}
		var avg float64
		var pop []float64
		if spec.DrawOrder == "v2" {
			cfg := coreConfig(spec, spec.Seed)
			cfg.Network = g
			b, err := core.NewBlock(cfg, rep, 1)
			if err != nil {
				return nil, err
			}
			for t := 0; t < spec.Steps; t++ {
				if err := b.StepBlock(); err != nil {
					return nil, err
				}
			}
			avg, bestQ, pop = b.CumulativeGroupReward(0)/float64(spec.Steps), b.BestQuality(), b.AppendPopularity(0, nil)
		} else {
			cfg := coreConfig(spec, experiment.SeedFor(spec.Seed, rep))
			cfg.Network = g
			grp, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			var cum float64
			for t := 0; t < spec.Steps; t++ {
				if err := grp.Step(); err != nil {
					return nil, err
				}
				cum += grp.GroupReward()
			}
			avg, bestQ, pop = cum/float64(spec.Steps), grp.BestQuality(), grp.AppendPopularity(nil)
		}
		regrets.Add(bestQ - avg)
		rewardMean += (avg - rewardMean) / float64(rep+1)
		if popSum == nil {
			popSum = make([]float64, len(pop))
		}
		for j, p := range pop {
			popSum[j] += p
		}
	}
	for j := range popSum {
		popSum[j] /= float64(spec.Replications)
	}
	return &service.Report{
		SpecHash: hash, Steps: spec.Steps, Replications: spec.Replications,
		BestQuality: bestQ, AverageGroupReward: rewardMean,
		Regret: regrets.Mean(), RegretStdDev: regrets.StdDev(), Popularity: popSum,
	}, nil
}

// checkSample recomputes a seeded sample of k successful ops of the
// window, among those that kept their report bytes, and compares each
// report with the served bytes. It returns how many ops it checked and
// a description of every mismatch.
func checkSample(w window, src *opSource, seed uint64, k int, p *sweepProbe) (int, []string, error) {
	var okIdx []int
	for i, out := range w.outcomes {
		if out.ok && out.reports != nil {
			okIdx = append(okIdx, i)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	r.Shuffle(len(okIdx), func(a, b int) { okIdx[a], okIdx[b] = okIdx[b], okIdx[a] })
	okIdx = okIdx[:min(k, len(okIdx))]
	var bad []string
	for _, i := range okIdx {
		o, err := src.at(i)
		if err != nil {
			return 0, nil, err
		}
		reps, err := recompute(o, p)
		if err != nil {
			return 0, nil, fmt.Errorf("recompute op %d: %w", i, err)
		}
		served := w.outcomes[i].reports
		for v, rep := range reps {
			want, err := json.Marshal(rep)
			if err != nil {
				return 0, nil, err
			}
			if v >= len(served) || !bytes.Equal(served[v], want) {
				bad = append(bad, fmt.Sprintf("op %d report %d differs from its recomputation", i, v))
			}
		}
	}
	return len(okIdx), bad, nil
}
