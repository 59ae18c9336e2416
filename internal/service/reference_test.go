package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/stats"
)

// referenceReport is the test oracle every scheduler path is compared
// against: spec's report computed the obvious way, outside the
// scheduler and experiment.RunSweep. Replication r of a v1 spec is
// core.New seeded experiment.SeedFor(Seed, r); of a v2 spec, a width-1
// core.NewBlock at lane r. Every replication builds its own topology
// graph, and replications merge in replication order.
func referenceReport(t *testing.T, spec Spec) *Report {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var regrets stats.Summary
	var rewardMean, bestQ float64
	var popSum []float64
	for rep := 0; rep < spec.Replications; rep++ {
		cfg := spec.coreConfig(experiment.SeedFor(spec.Seed, rep))
		if spec.DrawOrder == "v2" {
			cfg.Seed = spec.Seed
		}
		if spec.Topology != nil {
			if cfg.Network, err = spec.Topology.build(); err != nil {
				t.Fatal(err)
			}
		}
		var avg float64
		var pop []float64
		if spec.DrawOrder == "v2" {
			b, err := core.NewBlock(cfg, rep, 1)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < spec.Steps; s++ {
				if err := b.StepBlock(); err != nil {
					t.Fatal(err)
				}
			}
			avg, bestQ, pop = b.CumulativeGroupReward(0)/float64(spec.Steps), b.BestQuality(), b.AppendPopularity(0, nil)
		} else {
			g, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var cum float64
			for s := 0; s < spec.Steps; s++ {
				if err := g.Step(); err != nil {
					t.Fatal(err)
				}
				cum += g.GroupReward()
			}
			avg, bestQ, pop = cum/float64(spec.Steps), g.BestQuality(), g.Popularity()
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
	return &Report{
		SpecHash:           hash,
		Steps:              spec.Steps,
		Replications:       spec.Replications,
		BestQuality:        bestQ,
		AverageGroupReward: rewardMean,
		Regret:             regrets.Mean(),
		RegretStdDev:       regrets.StdDev(),
		Popularity:         popSum,
	}
}

// waitDone waits for job and fails the test unless it finished done.
func waitDone(t *testing.T, label string, job *Job) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if job.Status() != JobDone {
		t.Fatalf("%s: status %s: %v", label, job.Status(), job.Err())
	}
	return job.Report()
}

// TestSchedulerMatchesReference runs every engine under both draw
// orders through each way a spec reaches RunSweep — a solo job and a
// sweep variant — and checks each report equals the reference bit for
// bit. Topology specs do not sweep, so the ring shape runs solo only.
func TestSchedulerMatchesReference(t *testing.T) {
	t.Parallel()

	shapes := map[string]func(*Spec){
		"aggregate": func(s *Spec) { s.N, s.Replications = 5000, 3 },
		"agent":     func(s *Spec) { s.N, s.Engine, s.Replications = 300, "agent", 2 },
		"infinite":  func(s *Spec) { s.N, s.Replications = 0, 4 },
		"ring": func(s *Spec) {
			s.N, s.Replications = 0, 3
			s.Topology = &Topology{Kind: "ring", Nodes: 50}
		},
	}
	for name, shape := range shapes {
		for _, order := range []string{"", "v2"} {
			spec := validSpec()
			spec.Steps = 150
			spec.DrawOrder = order
			shape(&spec)
			want := referenceReport(t, spec)
			label := fmt.Sprintf("%s/%s", name, spec.drawOrderVersion())

			solo := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
			job, err := solo.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			assertReportsEqual(t, label+" solo", waitDone(t, label+" solo", job), want)
			if st := solo.Stats(); st.SoloJobs != 1 {
				t.Errorf("%s: SoloJobs = %d, want 1", label, st.SoloJobs)
			}
			if spec.Topology != nil {
				continue
			}

			sweeps := newTestScheduler(t, SchedulerConfig{Workers: 2, QueueDepth: 4})
			sw := SweepSpec{
				Family: SweepFamily{Qualities: spec.Qualities, Beta: spec.Beta, DrawOrder: spec.DrawOrder},
				Variants: []SweepVariant{{
					N: spec.N, Engine: spec.Engine, Steps: spec.Steps,
					Replications: spec.Replications, Seed: spec.Seed,
				}},
			}
			if err := sw.Validate(); err != nil {
				t.Fatal(err)
			}
			swHash, err := sw.Hash()
			if err != nil {
				t.Fatal(err)
			}
			hashes, err := sw.variantHashes()
			if err != nil {
				t.Fatal(err)
			}
			swJob, err := sweeps.SubmitSweep(sw, swHash, hashes)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, label+" sweep", swJob)
			assertReportsEqual(t, label+" sweep", swJob.Reports()[0], want)
		}
	}
}
