// Benchmarks: one per experiment in internal/experiment's claim index
// (E01–E14, in its package comment). Each
// benchmark runs a scaled-down instance of the corresponding experiment
// and reports its headline metric via b.ReportMetric, so `go test
// -bench=.` both times the harness and regenerates the paper-claim
// numbers in one pass. The full-size sweeps are produced by cmd/repro.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/service"
	"repro/internal/store"
)

func reportAll(b *testing.B, metrics map[string]float64, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := metrics[k]; ok {
			// Benchmark units must not contain whitespace.
			b.ReportMetric(v, strings.ReplaceAll(k, " ", "_"))
		}
	}
}

func BenchmarkE01InfiniteRegret(b *testing.B) {
	opt := experiment.E01Options{
		Ms: []int{2, 10}, Betas: []float64{0.6}, HorizonScale: 4, Reps: 10, Seed: 1,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E01InfiniteRegret(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "regret/m=10/beta=0.6000", "bound/m=10/beta=0.6000")
}

func BenchmarkE02BestOptionMass(b *testing.B) {
	opt := experiment.E02Options{
		Gaps: []float64{0.4}, Beta: 0.55, M: 5, HorizonScale: 4, Reps: 10, Seed: 2,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E02BestOptionMass(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "mass/gap=0.40", "bound/gap=0.40")
}

func BenchmarkE03FiniteRegret(b *testing.B) {
	opt := experiment.E03Options{
		Ms: []int{2}, Ns: []int{1000, 1000000}, Beta: 0.6, HorizonScale: 4, Reps: 5, Seed: 3,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E03FiniteRegret(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "regret/m=2/N=1000000", "bound/m=2")
}

func BenchmarkE04Coupling(b *testing.B) {
	opt := experiment.E04Options{
		Ns: []int{10000, 1000000}, Steps: 8, Beta: 0.7, Mu: 0.05, Reps: 5, Seed: 4,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E04Coupling(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "dev/N=1000000/t=8", "dev/N=10000/t=8")
}

func BenchmarkE05Ablation(b *testing.B) {
	opt := experiment.E05Options{N: 2000, M: 5, Beta: 0.7, Steps: 400, Reps: 5, Seed: 5}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E05Ablation(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "q1/full dynamics", "full_minus_best_ablation")
}

func BenchmarkE06Epochs(b *testing.B) {
	opt := experiment.E06Options{M: 5, Beta: 0.6, EpochScale: 2, Epochs: 4, Reps: 10, Seed: 6}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E06Epochs(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "regret/one-epoch", "regret/long", "bound")
}

func BenchmarkE07Baselines(b *testing.B) {
	opt := experiment.E07Options{M: 10, N: 1000, Beta: 0.6, Horizon: 1000, Reps: 5, Seed: 7}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E07Baselines(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "regret/group", "regret/hedge", "regret/UCB1")
}

func BenchmarkE08WordOfMouth(b *testing.B) {
	opt := experiment.E08Options{N: 2000, ShockScale: 1, Steps: 300, Reps: 5, Seed: 8}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E08WordOfMouth(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "alpha", "beta", "q1")
}

func BenchmarkE09Investors(b *testing.B) {
	opt := experiment.E09Options{
		N: 2000, M: 4, Eta1: 0.65, Betas: []float64{0.6, 0.65}, Steps: 1500, Reps: 5, Seed: 9,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E09Investors(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "q1/beta=0.65", "regret/beta=0.65")
}

func BenchmarkE10Topology(b *testing.B) {
	opt := experiment.E10Options{N: 200, Beta: 0.7, Mu: 0.02, Steps: 400, Target: 0.6, Reps: 3, Seed: 10}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E10Topology(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "share/complete", "share/ring", "hit/ring")
}

func BenchmarkE11Drift(b *testing.B) {
	opt := experiment.E11Options{
		N: 1000, M: 4, Beta: 0.7, Steps: 1000,
		Sigmas: []float64{0, 0.02}, Period: 250, Reps: 5, Seed: 11,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E11Drift(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "dynregret/drifting sigma=0.000", "dynregret/drifting sigma=0.020")
}

func BenchmarkE12MuSweep(b *testing.B) {
	opt := experiment.E12Options{N: 200, M: 5, Gap: 0.05, Beta: 0.7, Steps: 1000, Reps: 10, Seed: 12}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E12MuSweep(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "fixation/mu=0.0000", "q1/mu=1.0000")
}

func BenchmarkE13Concentration(b *testing.B) {
	opt := experiment.E13Options{M: 5, Ns: []int{10000}, Mu: 0.1, Beta: 0.7, Reps: 1000, Seed: 13}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E13Concentration(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "p99_stage1/N=10000", "violations1/N=10000")
}

func BenchmarkE14Protocol(b *testing.B) {
	opt := experiment.E14Options{
		Nodes: 300, Beta: 0.7, Mu: 0.02, Steps: 400,
		Losses: []float64{0, 0.1}, Reps: 3, Seed: 14,
	}
	var res *experiment.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.E14Protocol(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, res.Metrics, "share/loss=0.00", "share/loss=0.10", "msgs/loss=0.00")
}

// BenchmarkSweep measures the batched sweep engine's speedup: a 16-variant
// shared-(qualities, β, µ) sweep submitted as one POST /v1/sweep
// request versus the same 16 variants submitted as independent
// POST /v1/simulate calls (each paying its own HTTP round trip,
// decode, validate/hash, single-flight, and scheduler handshake, and
// running as its own job) against servers with the same worker budget.
// The paper's sweep workloads are exactly this shape: many small
// shared-family runs, where the per-request fixed costs rival the
// simulation itself and batching amortizes them. Each iteration also
// asserts the batched per-variant reports are bit-identical to the
// independent path's for the same seeds.
func BenchmarkSweep(b *testing.B) {
	const (
		workers   = 4
		nVariants = 16
	)
	newServer := func() *httptest.Server {
		sched, err := service.NewScheduler(service.SchedulerConfig{
			Workers:    workers,
			QueueDepth: 2 * nVariants,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Cache storage off (single-flight only): every request
		// simulates, so the comparison times computation, not caching.
		cache, err := service.NewCache(0)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(service.NewServer(sched, cache))
		b.Cleanup(func() {
			ts.Close()
			sched.Close()
		})
		return ts
	}
	tsInd := newServer() // baseline: per-spec serving
	tsBat := newServer()

	// report mirrors the wire shape of service.Report; float64 JSON
	// round-trips exactly (shortest round-trip encoding), so comparing
	// decoded values still checks bit-identity.
	type report struct {
		SpecHash           string    `json:"spec_hash"`
		Steps              int       `json:"steps"`
		Replications       int       `json:"replications"`
		BestQuality        float64   `json:"best_quality"`
		AverageGroupReward float64   `json:"average_group_reward"`
		Regret             float64   `json:"regret"`
		RegretStdDev       float64   `json:"regret_stddev"`
		Popularity         []float64 `json:"popularity"`
	}
	type sweepResult struct {
		Results []report `json:"results"`
	}
	post := func(client *http.Client, url string, payload any, out any) error {
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return json.Unmarshal(raw, out)
	}
	makeSweep := func(iter int) service.SweepSpec {
		sw := service.SweepSpec{
			Family: service.SweepFamily{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7},
		}
		for v := 0; v < nVariants; v++ {
			sw.Variants = append(sw.Variants, service.SweepVariant{
				N:     1000 * (1 + v%4),
				Steps: 100,
				Seed:  uint64(1 + iter*nVariants + v),
			})
		}
		return sw
	}
	variantSpec := func(sw service.SweepSpec, v int) service.Spec {
		return service.Spec{
			N:         sw.Variants[v].N,
			Qualities: sw.Family.Qualities,
			Beta:      sw.Family.Beta,
			Steps:     sw.Variants[v].Steps,
			Seed:      sw.Variants[v].Seed,
		}
	}

	clientInd := tsInd.Client()
	clientBat := tsBat.Client()
	var tInd, tBat time.Duration
	for i := 0; i < b.N; i++ {
		sw := makeSweep(i)

		// Independent path: 16 concurrent /v1/simulate calls.
		indReports := make([]report, nVariants)
		errs := make([]error, nVariants)
		start := time.Now()
		var wg sync.WaitGroup
		for v := 0; v < nVariants; v++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				errs[v] = post(clientInd, tsInd.URL+"/v1/simulate", variantSpec(sw, v), &indReports[v])
			}(v)
		}
		wg.Wait()
		tInd += time.Since(start)
		for v, err := range errs {
			if err != nil {
				b.Fatalf("independent variant %d: %v", v, err)
			}
		}

		// Batched path: one /v1/sweep call for the whole family.
		var sr sweepResult
		start = time.Now()
		if err := post(clientBat, tsBat.URL+"/v1/sweep", sw, &sr); err != nil {
			b.Fatal(err)
		}
		tBat += time.Since(start)
		if len(sr.Results) != nVariants {
			b.Fatalf("sweep returned %d results", len(sr.Results))
		}

		for v := 0; v < nVariants; v++ {
			ind, bat := indReports[v], sr.Results[v]
			if ind.SpecHash != bat.SpecHash || ind.Regret != bat.Regret ||
				ind.AverageGroupReward != bat.AverageGroupReward ||
				ind.RegretStdDev != bat.RegretStdDev {
				b.Fatalf("variant %d: batched report diverged from independent path:\n%+v\n%+v", v, bat, ind)
			}
			for j := range ind.Popularity {
				if ind.Popularity[j] != bat.Popularity[j] {
					b.Fatalf("variant %d: popularity[%d] %v != %v", v, j, bat.Popularity[j], ind.Popularity[j])
				}
			}
		}
	}
	if tBat > 0 {
		b.ReportMetric(float64(tInd)/float64(tBat), "speedup_x")
		b.ReportMetric(tBat.Seconds()/float64(b.N)*1e3, "batched_ms/sweep")
		b.ReportMetric(tInd.Seconds()/float64(b.N)*1e3, "independent_ms/sweep")
	}
}

// BenchmarkServiceSimulate times the serving path of internal/service
// through cache+scheduler, separating the cache-cold (every request
// simulates) and cache-hot (every request is answered from the LRU)
// regimes so serving-path throughput is tracked across PRs.
func BenchmarkServiceSimulate(b *testing.B) {
	newStack := func(b *testing.B, cacheSize int) (*service.Scheduler, *service.Cache) {
		b.Helper()
		sched, err := service.NewScheduler(service.SchedulerConfig{Workers: 4, QueueDepth: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(sched.Close)
		cache, err := service.NewCache(cacheSize)
		if err != nil {
			b.Fatal(err)
		}
		return sched, cache
	}
	spec := service.Spec{
		N:         10_000,
		Qualities: []float64{0.9, 0.5, 0.5},
		Beta:      0.7,
		Steps:     1_000,
		Seed:      1,
	}
	simulate := func(b *testing.B, sched *service.Scheduler, cache *service.Cache, spec service.Spec) *service.Report {
		b.Helper()
		hash, err := spec.Hash()
		if err != nil {
			b.Fatal(err)
		}
		report, _, err := cache.Do(context.Background(), hash, func() (*service.Report, error) {
			job, err := sched.Submit(spec)
			if err != nil {
				return nil, err
			}
			if err := job.Wait(context.Background()); err != nil {
				return nil, err
			}
			if err := job.Err(); err != nil {
				return nil, err
			}
			return job.Report(), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return report
	}

	b.Run("cold", func(b *testing.B) {
		sched, cache := newStack(b, 0) // storage off: every request simulates
		for i := 0; i < b.N; i++ {
			s := spec
			s.Seed = uint64(i + 1) // distinct hash per request
			if r := simulate(b, sched, cache, s); r.Replications != 1 {
				b.Fatal("bad report")
			}
		}
	})
	b.Run("hot", func(b *testing.B) {
		sched, cache := newStack(b, 16)
		simulate(b, sched, cache, spec) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := simulate(b, sched, cache, spec); r.Replications != 1 {
				b.Fatal("bad report")
			}
		}
		if st := cache.Stats(); st.Hits < uint64(b.N) {
			b.Fatalf("hot loop missed the cache: %+v", st)
		}
	})
	// The cache-hot regime again, but with the tsdb collector capturing
	// the whole registry every millisecond in the background — an
	// aggressive stand-in for the daemon's -obs-scrape-interval loop
	// (default 1s). Compare against "hot" in the same run: the serving
	// path takes no lock the collector holds for long, so the two must
	// stay at parity.
	b.Run("hot_collected", func(b *testing.B) {
		sched, cache := newStack(b, 16)
		ring := tsdb.NewRing(sched.Registry(), 128)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-t.C:
					ring.Collect(now)
				}
			}
		}()
		simulate(b, sched, cache, spec) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := simulate(b, sched, cache, spec); r.Replications != 1 {
				b.Fatal("bad report")
			}
		}
		b.StopTimer()
		close(stop)
		<-done
		if st := cache.Stats(); st.Hits < uint64(b.N) {
			b.Fatalf("hot loop missed the cache: %+v", st)
		}
	})
}

// BenchmarkRegistrySnapshot pins the snapshot ring's capture cost over
// the full serving registry (scheduler + HTTP + cache + runtime
// families): the first Collect into a fresh Snapshot allocates
// O(series) — every slice it will ever need — and steady-state
// captures into the recycled Snapshot allocate nothing (asserted,
// except under the race detector whose instrumentation allocates).
// This is the contract that lets the daemon scrape itself every second
// without feeding the GC.
func BenchmarkRegistrySnapshot(b *testing.B) {
	sched, err := service.NewScheduler(service.SchedulerConfig{Workers: 2, QueueDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sched.Close)
	cache, err := service.NewCache(8)
	if err != nil {
		b.Fatal(err)
	}
	service.NewServer(sched, cache) // register the full serving family set
	reg := sched.Registry()

	var series int
	firstAllocs := testing.AllocsPerRun(1, func() {
		snap := reg.Collect(nil, time.Now())
		series = 0
		for i := range snap.Families {
			series += len(snap.Families[i].Points)
		}
	})

	snap := reg.Collect(nil, time.Now())
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() {
			snap = reg.Collect(snap, time.Now())
		}); allocs != 0 {
			b.Fatalf("steady-state Collect allocates %v per capture; want 0", allocs)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = reg.Collect(snap, time.Now())
	}
	b.StopTimer()
	b.ReportMetric(float64(series), "series")
	b.ReportMetric(firstAllocs, "first_capture_allocs")
}

// BenchmarkStoreTiers pins the two performance contracts of the
// tiered persistent result store (internal/store behind the
// service.Cache seam):
//
//  1. hot-tier hits through a Tiered backend are no slower than the
//     plain in-proc LRU the cache used before (the memory front IS
//     that LRU; the tier indirection must stay within noise), and
//  2. cold hits served from the disk segment log still beat
//     recomputing the result by ≥10× — the entire point of
//     persisting the corpus across restarts.
//
// Reported metrics: ns/op per regime, the hot-tier ratio, and the
// disk-vs-recompute speedup.
func BenchmarkStoreTiers(b *testing.B) {
	spec := service.Spec{
		N:         10_000,
		Qualities: []float64{0.9, 0.5, 0.5},
		Beta:      0.7,
		Steps:     1_000,
		Seed:      1,
	}
	hash, err := spec.Hash()
	if err != nil {
		b.Fatal(err)
	}
	sched, err := service.NewScheduler(service.SchedulerConfig{Workers: 2, QueueDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sched.Close)
	compute := func(seed uint64) *service.Report {
		b.Helper()
		s := spec
		s.Seed = seed
		job, err := sched.Submit(s)
		if err != nil {
			b.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := job.Err(); err != nil {
			b.Fatal(err)
		}
		return job.Report()
	}
	report := compute(spec.Seed)
	// warm stores report under key through the cache's miss path.
	warm := func(c *service.Cache, key string) {
		b.Helper()
		if _, _, err := c.Do(context.Background(), key, func() (*service.Report, error) {
			return report, nil
		}); err != nil {
			b.Fatal(err)
		}
	}

	// Baseline: the pre-change shape — service.Cache over the in-proc
	// LRU — warmed with the report.
	lruCache, err := service.NewCache(1024)
	if err != nil {
		b.Fatal(err)
	}
	warm(lruCache, hash)

	newTieredCache := func(memCapacity int) *service.Cache {
		b.Helper()
		disk, err := store.OpenDisk(b.TempDir(), store.DiskOptions{MaxBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		tiered, err := store.NewTiered[*service.Report](memCapacity, disk, service.ReportCodec())
		if err != nil {
			b.Fatal(err)
		}
		c, err := service.NewCacheWithStore(tiered)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		return c
	}

	// Hot regime: tiered cache with the key resident in the memory
	// front.
	hotCache := newTieredCache(1024)
	warm(hotCache, hash)

	// Cold regime: memory front of one slot with two alternating keys,
	// so every Get reads through to the disk segment log (each
	// promotion evicts the other key). Wait for the write-behind
	// spills so both records are on disk before timing.
	coldCache := newTieredCache(1)
	coldKeys := [2]string{hash + "-cold0", hash + "-cold1"}
	warm(coldCache, coldKeys[0])
	warm(coldCache, coldKeys[1])
	deadline := time.Now().Add(10 * time.Second)
	for coldCache.Stats().Tiers.Spills < 2 {
		if time.Now().After(deadline) {
			b.Fatal("spills never landed on disk")
		}
		time.Sleep(time.Millisecond)
	}

	hit := func(c *service.Cache, key string) {
		b.Helper()
		r, cached, err := c.Do(context.Background(), key, func() (*service.Report, error) {
			return nil, fmt.Errorf("hit path must not compute")
		})
		if err != nil || !cached || r == nil {
			b.Fatalf("expected stored hit: cached=%v err=%v", cached, err)
		}
	}

	const (
		hotIters  = 20_000 // ~100ns ops: batch so timer overhead vanishes
		coldIters = 500    // disk preads: µs each
		simIters  = 2      // real recomputations: ms each
	)
	var tLRU, tTiered, tDisk, tSim time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for j := 0; j < hotIters; j++ {
			hit(lruCache, hash)
		}
		tLRU += time.Since(start)

		start = time.Now()
		for j := 0; j < hotIters; j++ {
			hit(hotCache, hash)
		}
		tTiered += time.Since(start)

		start = time.Now()
		for j := 0; j < coldIters; j++ {
			hit(coldCache, coldKeys[j%2])
		}
		tDisk += time.Since(start)

		start = time.Now()
		for j := 0; j < simIters; j++ {
			compute(uint64(1000 + i*simIters + j)) // fresh seed: no cache to hide behind
		}
		tSim += time.Since(start)
	}

	lruNs := float64(tLRU.Nanoseconds()) / float64(b.N*hotIters)
	tieredNs := float64(tTiered.Nanoseconds()) / float64(b.N*hotIters)
	diskNs := float64(tDisk.Nanoseconds()) / float64(b.N*coldIters)
	simNs := float64(tSim.Nanoseconds()) / float64(b.N*simIters)
	hotRatio := tieredNs / lruNs
	coldSpeedup := simNs / diskNs
	b.ReportMetric(lruNs, "lru_hot_ns/op")
	b.ReportMetric(tieredNs, "tiered_hot_ns/op")
	b.ReportMetric(diskNs, "disk_hit_ns/op")
	b.ReportMetric(simNs, "recompute_ns/op")
	b.ReportMetric(hotRatio, "hot_ratio_vs_lru")
	b.ReportMetric(coldSpeedup, "disk_vs_recompute_x")

	// The pins. The hot bound is generous (3×) because single hits
	// are ~100ns and CI machines are noisy; the real expectation is
	// ~1× and regressions that matter (decode or I/O sneaking onto
	// the hot path) are orders of magnitude.
	if hotRatio > 3.0 {
		b.Fatalf("tiered hot hit %.0fns is %.1f× the plain LRU's %.0fns (budget 3×)", tieredNs, hotRatio, lruNs)
	}
	if coldSpeedup < 10 {
		b.Fatalf("disk hit %.0fns only %.1f× faster than recompute %.0fns (need ≥10×)", diskNs, coldSpeedup, simNs)
	}
}

// BenchmarkMetricsOverhead pins the cost of the obs recording hot
// path, which PR 6 threads through the scheduler's dequeue/settle
// paths and the HTTP middleware. The contract: Histogram.Observe,
// Counter.Inc, and Gauge.Add are allocation-free (asserted, except
// under the race detector whose instrumentation allocates) and cost
// tens of nanoseconds — small against the ~1.4µs cache-hit serving
// path they instrument, and invisible against a simulation.
func BenchmarkMetricsOverhead(b *testing.B) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench_latency_seconds", "Benchmark histogram.", obs.LatencyBuckets())
	ctr := reg.Counter("bench_events_total", "Benchmark counter.")
	gauge := reg.Gauge("bench_depth", "Benchmark gauge.")

	assertZeroAlloc := func(b *testing.B, record func()) {
		b.Helper()
		if raceEnabled {
			return
		}
		if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
			b.Fatalf("recording allocates %v per op; want 0", allocs)
		}
	}

	b.Run("histogram_observe", func(b *testing.B) {
		assertZeroAlloc(b, func() { hist.Observe(1.7e-3) })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i&1023) * 1e-6)
		}
	})
	b.Run("counter_inc", func(b *testing.B) {
		assertZeroAlloc(b, ctr.Inc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("gauge_add", func(b *testing.B) {
		assertZeroAlloc(b, func() { gauge.Add(1) })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gauge.Add(1)
		}
	})
	// Contended regime: every GOMAXPROCS worker hammering one
	// histogram, the shape of every scheduler worker recording into one
	// per-class queue-wait histogram under load (scrapes race these
	// writes lock-free).
	b.Run("histogram_observe_parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			v := 0
			for pb.Next() {
				hist.Observe(float64(v&1023) * 1e-6)
				v++
			}
		})
	})
}

// BenchmarkSpanOverhead pins the cost of the span recording hot path
// that the tracing layer threads through the scheduler's replication
// and block loops: Start+SetAttr+End against a live trace must be
// allocation-free (the capHint pre-grows the span array and attrs
// live inline in the span), and the nil-trace path — every untraced
// request, including the cache-hit benchmark regime — must cost
// nothing. Asserted except under the race detector, whose
// instrumentation allocates.
func BenchmarkSpanOverhead(b *testing.B) {
	assertZeroAlloc := func(b *testing.B, record func()) {
		b.Helper()
		if raceEnabled {
			return
		}
		if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
			b.Fatalf("span recording allocates %v per op; want 0", allocs)
		}
	}
	rec := span.NewRecorder(4)

	b.Run("start_attr_end", func(b *testing.B) {
		tr := rec.Start("bench", "bench", 4096)
		used := 1 // the root span holds slot 0
		record := func() {
			sid := tr.Start("step", span.Root)
			tr.SetAttr(sid, "replication", 7)
			tr.End(sid)
			used++
			if used >= 4000 {
				// Rotate before hitting the per-trace span cap; the
				// replacement trace is pre-grown, so the steady state
				// stays allocation-free per span.
				tr.Release()
				tr = rec.Start("bench", "bench", 4096)
				used = 1
			}
		}
		assertZeroAlloc(b, record) // 1001 runs fit inside one trace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			record()
		}
		tr.Release()
	})
	b.Run("nil_trace", func(b *testing.B) {
		var tr *span.Trace
		record := func() {
			sid := tr.Start("step", span.Root)
			tr.SetAttr(sid, "replication", 7)
			tr.End(sid)
		}
		assertZeroAlloc(b, record)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			record()
		}
	})
}

// TestTracedCacheHitAllocs pins what span tracing adds to the request
// path the `hits` benchmark workload measures: one memory-tier
// POST /v1/simulate cache hit served through service.NewServer, with
// and without a span recorder. A traced hit records three spans (root,
// validate, cache.get) and two attributes. Its trace must cost at most
// 2 KiB and maxAllocs allocations more than the untraced hit; a trace
// that starts with room for dozens of spans breaks the first pin, and
// one that allocates its attribute array apart from the trace breaks
// the second. Skipped under the race detector, whose instrumentation
// allocates.
func TestTracedCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are perturbed under -race")
	}
	// maxAllocs counts the trace (its first spans and attributes are
	// part of it) and the context value and its boxed payload that
	// carry the trace downstream.
	const hits, budget, maxAllocs = 2000, 2048, 3
	body := []byte(`{"n": 1000, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 100, "seed": 1}`)
	perHit := func(opts ...service.ServerOption) (allocs, size float64) {
		t.Helper()
		sched, err := service.NewScheduler(service.SchedulerConfig{Workers: 1, QueueDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sched.Close)
		cache, err := service.NewCache(16)
		if err != nil {
			t.Fatal(err)
		}
		srv := service.NewServer(sched, cache, opts...)
		serve := func() {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("simulate status %d (%s)", w.Code, w.Body)
			}
		}
		serve() // the miss that fills the cache
		allocs, size = heapPerRun(hits, serve)
		if st := cache.Stats(); st.Hits < hits {
			t.Fatalf("the loop missed the cache: %+v", st)
		}
		return allocs, size
	}
	plainAllocs, plain := perHit()
	tracedAllocs, traced := perHit(service.WithTraces(span.NewRecorder(256)))
	t.Logf("per cache hit: untraced %.1f allocs %.0f B, traced %.1f allocs %.0f B (+%.1f, +%.0f B)",
		plainAllocs, plain, tracedAllocs, traced, tracedAllocs-plainAllocs, traced-plain)
	if traced-plain > budget {
		t.Errorf("a traced cache hit allocates %.0f B more than an untraced one; budget %d B", traced-plain, budget)
	}
	// Half an allocation of slack absorbs the odd allocation another
	// goroutine makes during the count.
	if tracedAllocs-plainAllocs > maxAllocs+0.5 {
		t.Errorf("a traced cache hit makes %.1f more allocations than an untraced one; want at most %d",
			tracedAllocs-plainAllocs, maxAllocs)
	}
}

// heapPerRun is testing.AllocsPerRun for both allocations and bytes:
// the mean heap allocations and bytes f makes per call over runs calls,
// after one warm-up call, with GOMAXPROCS 1 so that other goroutines'
// allocations stay out of the count as far as possible.
func heapPerRun(runs int, f func()) (allocs, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
