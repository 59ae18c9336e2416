package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

func validSweep() SweepSpec {
	return SweepSpec{
		Family: SweepFamily{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7},
		Variants: []SweepVariant{
			{N: 1000, Steps: 200, Seed: 1},
			{N: 2000, Steps: 150, Seed: 2, Replications: 2},
			{N: 0, Steps: 100, Seed: 3},
			{N: 300, Engine: "agent", Steps: 120, Seed: 4},
		},
	}
}

// TestSweepSpecValidate is the table-driven admission coverage:
// family errors, variant errors, count limits, and the summed-work
// admission decision.
func TestSweepSpecValidate(t *testing.T) {
	t.Parallel()

	s := validSweep()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	if s.Variants[0].Engine != "aggregate" || s.Variants[0].Replications != 1 {
		t.Errorf("Normalize left variant engine=%q replications=%d",
			s.Variants[0].Engine, s.Variants[0].Replications)
	}

	cases := []struct {
		name   string
		mutate func(*SweepSpec)
	}{
		{"no variants", func(s *SweepSpec) { s.Variants = nil }},
		{"too many variants", func(s *SweepSpec) {
			s.Variants = make([]SweepVariant, MaxSweepVariants+1)
			for i := range s.Variants {
				s.Variants[i] = SweepVariant{N: 10, Steps: 1, Seed: uint64(i)}
			}
		}},
		{"bad family beta", func(s *SweepSpec) { s.Family.Beta = 1.5 }},
		{"no family qualities", func(s *SweepSpec) { s.Family.Qualities = nil }},
		{"bad family quality", func(s *SweepSpec) { s.Family.Qualities = []float64{0.9, 1.7} }},
		{"bad family mu", func(s *SweepSpec) { mu := 1.5; s.Family.Mu = &mu }},
		{"variant no steps", func(s *SweepSpec) { s.Variants[1].Steps = 0 }},
		{"variant negative n", func(s *SweepSpec) { s.Variants[2].N = -1 }},
		{"variant bad engine", func(s *SweepSpec) { s.Variants[0].Engine = "warp" }},
		{"variant negative replications", func(s *SweepSpec) { s.Variants[3].Replications = -2 }},
		{"variant over per-spec work", func(s *SweepSpec) {
			s.Variants[0].Steps = MaxSteps
			s.Variants[0].Replications = 100
		}},
		{"variant steps overflow", func(s *SweepSpec) { s.Variants[0].Steps = int(^uint(0) >> 1) }},
		{"variant agent population limit", func(s *SweepSpec) {
			s.Variants[3].N = MaxAgentPopulation + 1
		}},
		{"summed work over limit", func(s *SweepSpec) {
			// Each variant is individually admissible (10⁴ steps ×
			// 10⁶ agents = 10¹⁰ = MaxWork exactly) but two of them sum
			// to 2×10¹⁰.
			s.Variants = []SweepVariant{
				{N: MaxAgentPopulation, Engine: "agent", Steps: 10_000, Seed: 1},
				{N: MaxAgentPopulation, Engine: "agent", Steps: 10_000, Seed: 2},
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSweep()
			c.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("Validate = %v, want ErrBadSpec", err)
			}
		})
	}
}

// TestSweepSpecHashCanonical checks sweep hashing is deterministic,
// that explicit variant and family defaults collide with their absent
// forms, and that meaningful changes separate.
func TestSweepSpecHashCanonical(t *testing.T) {
	t.Parallel()

	a := validSweep()
	h1, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash not deterministic sha256 hex: %s vs %s", h1, h2)
	}

	b := validSweep()
	b.Variants[0].Engine = "aggregate"
	b.Variants[0].Replications = 1
	alpha := 1 - b.Family.Beta
	b.Family.Alpha = &alpha // explicit paper default
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb != h1 {
		t.Errorf("explicit-default sweep hashes differ: %s vs %s", hb, h1)
	}

	for name, mutate := range map[string]func(*SweepSpec){
		"variant seed":  func(s *SweepSpec) { s.Variants[0].Seed++ },
		"variant order": func(s *SweepSpec) { s.Variants[0], s.Variants[1] = s.Variants[1], s.Variants[0] },
		"family beta":   func(s *SweepSpec) { s.Family.Beta = 0.71 },
		"family alpha":  func(s *SweepSpec) { al := 0.2; s.Family.Alpha = &al },
		"drop variant":  func(s *SweepSpec) { s.Variants = s.Variants[:3] },
	} {
		c := validSweep()
		mutate(&c)
		hc, err := c.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hc == h1 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

// TestSubmitSweepMatchesRunSpec is the batching correctness
// guarantee: a sweep job's per-variant reports are bit-identical to
// running each variant through the sequential per-spec path with the
// same seeds.
func TestSubmitSweepMatchesRunSpec(t *testing.T) {
	t.Parallel()

	sw := validSweep()
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	hashes, err := sw.variantHashes()
	if err != nil {
		t.Fatal(err)
	}
	swHash, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}

	s := newTestScheduler(t, SchedulerConfig{Workers: 4, QueueDepth: 4})
	job, err := s.SubmitSweep(sw, swHash, hashes)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.Status() != JobDone {
		t.Fatalf("sweep job %s: %v", job.Status(), job.Err())
	}
	reports := job.Reports()
	if len(reports) != len(sw.Variants) {
		t.Fatalf("got %d reports for %d variants", len(reports), len(sw.Variants))
	}
	for i := range sw.Variants {
		spec := sw.variantSpec(i)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		assertReportsEqual(t, fmt.Sprintf("variant %d", i), reports[i], referenceReport(t, spec))
	}
	if st := s.Stats(); st.Sweeps != 1 {
		t.Errorf("Sweeps = %d, want 1", st.Sweeps)
	}
}

func assertReportsEqual(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil report (got %v, want %v)", label, got, want)
	}
	if got.SpecHash != want.SpecHash {
		t.Errorf("%s: hash %s, want %s", label, got.SpecHash, want.SpecHash)
	}
	if got.Steps != want.Steps || got.Replications != want.Replications {
		t.Errorf("%s: steps/reps %d/%d, want %d/%d", label, got.Steps, got.Replications, want.Steps, want.Replications)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.BestQuality, want.BestQuality) ||
		!same(got.AverageGroupReward, want.AverageGroupReward) ||
		!same(got.Regret, want.Regret) ||
		!same(got.RegretStdDev, want.RegretStdDev) {
		t.Errorf("%s: scalars %+v, want %+v", label, got, want)
	}
	if len(got.Popularity) != len(want.Popularity) {
		t.Fatalf("%s: popularity lengths %d vs %d", label, len(got.Popularity), len(want.Popularity))
	}
	for j := range want.Popularity {
		if !same(got.Popularity[j], want.Popularity[j]) {
			t.Errorf("%s: popularity[%d] = %v, want %v", label, j, got.Popularity[j], want.Popularity[j])
		}
	}
}

// TestSchedulerMixedBacklog queues two families and a topology spec
// behind a blocker on one shard and checks every job of the drained
// backlog runs on its own and matches its reference report.
func TestSchedulerMixedBacklog(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 8})
	blocker := validSpec()
	blocker.Steps = 40_000_000
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for bjob.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	famA := validSpec()
	famB := validSpec()
	famB.Beta = 0.65
	topo := validSpec()
	topo.N = 0
	topo.Topology = &Topology{Kind: "ring", Nodes: 64}

	var jobs []*Job
	var specs []Spec
	for i, base := range []Spec{famA, famB, famA, topo, famB} {
		spec := base
		spec.Seed = uint64(500 + i)
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		specs = append(specs, spec)
	}
	bjob.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		spec := specs[i]
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		assertReportsEqual(t, fmt.Sprintf("mixed job %d", i), job.Report(), referenceReport(t, spec))
	}
	// The blocker and all five queued specs each ran as a solo job.
	if st := s.Stats(); st.SoloJobs != 6 {
		t.Errorf("SoloJobs = %d, want 6 (stats: %+v)", st.SoloJobs, st)
	}
}

// TestCacheAcquire covers the batch face of the single-flight
// machinery: hit, lead+publish (stores and releases waiters), join,
// and error propagation.
func TestCacheAcquire(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	// Lead.
	report, publish, wait := c.Acquire("k1")
	if report != nil || publish == nil || wait != nil {
		t.Fatalf("first Acquire: report=%v lead=%t join=%t", report, publish != nil, wait != nil)
	}
	// A second caller joins the flight.
	report2, publish2, wait2 := c.Acquire("k1")
	if report2 != nil || publish2 != nil || wait2 == nil {
		t.Fatalf("second Acquire: report=%v lead=%t join=%t", report2, publish2 != nil, wait2 != nil)
	}
	want := &Report{SpecHash: "k1", Steps: 10, Replications: 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err := wait2(context.Background())
		if err != nil || got != want {
			t.Errorf("wait = %v, %v; want published report", got, err)
		}
	}()
	publish(want, nil)
	<-done
	// Published report is stored: third Acquire is a hit.
	report3, publish3, wait3 := c.Acquire("k1")
	if report3 != want || publish3 != nil || wait3 != nil {
		t.Fatalf("post-publish Acquire: report=%v lead=%t join=%t", report3, publish3 != nil, wait3 != nil)
	}
	// Errors propagate to waiters and store nothing.
	_, publish, _ = c.Acquire("k2")
	_, _, wait = c.Acquire("k2")
	bang := errors.New("bang")
	go publish(nil, bang)
	if _, err := wait(context.Background()); !errors.Is(err, bang) {
		t.Errorf("waiter error = %v, want bang", err)
	}
	st := c.Stats()
	if st.Size != 1 {
		t.Errorf("%d reports stored, want 1: a failed flight stored one", st.Size)
	}
	if st.Hits != 1 || st.Misses != 2 || st.Waits != 2 {
		t.Errorf("stats %+v, want 1 hit / 2 misses / 2 waits", st)
	}
}

// TestSweepSingleFlight fires concurrent identical sweeps plus a
// concurrent /v1/simulate for one covered variant, and checks every
// variant simulated exactly once across all requests.
func TestSweepSingleFlight(t *testing.T) {
	t.Parallel()

	ts, sched, _ := testServer(t, SchedulerConfig{Workers: 2, QueueDepth: 16}, 32)
	sweepBody := `{
		"family": {"qualities": [0.9, 0.5, 0.5], "beta": 0.7},
		"variants": [
			{"n": 1000, "steps": 400, "seed": 41},
			{"n": 2000, "steps": 400, "seed": 42},
			{"n": 4000, "steps": 400, "seed": 43}
		]
	}`
	simBody := `{"n": 2000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 400, "seed": 42}`

	const sweepClients = 4
	var wg sync.WaitGroup
	sweepCodes := make([]int, sweepClients)
	sweepBodies := make([][]byte, sweepClients)
	for i := 0; i < sweepClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/sweep", sweepBody)
			sweepCodes[i] = resp.StatusCode
			sweepBodies[i] = raw
		}(i)
	}
	var simRaw []byte
	var simCode int
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, raw := postJSON(t, ts.URL+"/v1/simulate", simBody)
		simCode = resp.StatusCode
		simRaw = raw
	}()
	wg.Wait()

	for i := 0; i < sweepClients; i++ {
		if sweepCodes[i] != http.StatusOK {
			t.Fatalf("sweep client %d: status %d (%s)", i, sweepCodes[i], sweepBodies[i])
		}
	}
	if simCode != http.StatusOK {
		t.Fatalf("simulate: status %d (%s)", simCode, simRaw)
	}
	// Every response agrees on the seed-42 variant.
	var first sweepResponse
	if err := json.Unmarshal(sweepBodies[0], &first); err != nil {
		t.Fatal(err)
	}
	var sim simulateResponse
	if err := json.Unmarshal(simRaw, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Regret != first.Results[1].Regret || sim.SpecHash != first.Results[1].SpecHash {
		t.Errorf("simulate %v/%s diverged from sweep variant %v/%s",
			sim.Regret, sim.SpecHash, first.Results[1].Regret, first.Results[1].SpecHash)
	}
	for i := 1; i < sweepClients; i++ {
		var got sweepResponse
		if err := json.Unmarshal(sweepBodies[i], &got); err != nil {
			t.Fatal(err)
		}
		for v := range first.Results {
			if got.Results[v].Regret != first.Results[v].Regret {
				t.Errorf("sweep client %d variant %d diverged", i, v)
			}
		}
	}
	// Single-flight bound: there are only 3 variant flights, and each
	// leader request folds its leads into one job, so at most 3 jobs
	// ran in total (typically 1). Without per-variant flights the 4
	// sweeps and the simulate would have completed 5 jobs, simulating
	// the seed-42 spec five times.
	st := sched.Stats()
	executed := st.Completed
	if executed == 0 || executed > 3 {
		t.Errorf("completed jobs = %d, want 1..3 (single-flight)", executed)
	}
}

// TestSweepJobTimeout checks the server time limit applies to sweep
// jobs as a whole.
func TestSweepJobTimeout(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{
		Workers: 1, QueueDepth: 2, JobTimeout: 10 * time.Millisecond,
	})
	sw := SweepSpec{
		Family: SweepFamily{Qualities: []float64{0.9, 0.5}, Beta: 0.7},
		Variants: []SweepVariant{
			{N: 1000, Steps: 40_000_000, Seed: 1},
			{N: 1000, Steps: 40_000_000, Seed: 2},
		},
	}
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	hashes, err := sw.variantHashes()
	if err != nil {
		t.Fatal(err)
	}
	swHash, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.SubmitSweep(sw, swHash, hashes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if job.Status() != JobFailed || !errors.Is(job.Err(), ErrJobTimeout) {
		t.Errorf("status %s err %v, want failed with ErrJobTimeout", job.Status(), job.Err())
	}
}
