package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
	"repro/internal/service/loadctl"
	"repro/internal/store"
)

// TestChaosOverloadShedsGracefully is the fault-injection acceptance
// scenario: with injected per-job latency (a slow dependency) and disk
// stalls on the store's read path, a mixed-priority flood at several
// times the drain capacity must degrade gracefully — the brownout
// controller escalates, batch work is shed while interactive work
// keeps running with bounded queue wait, and once the flood stops the
// controller relaxes back to level 0 within one slow SLO window (6×
// the rule window). Every assertion reads the tsdb ring (the same
// history /debug/dash renders), not sleeps or private state.
//
// Deliberately not parallel: the fault-injection seams are
// process-global, so they must not overlap timing-sensitive tests.
func TestChaosOverloadShedsGracefully(t *testing.T) {
	const (
		tick       = 250 * time.Millisecond
		ruleWindow = time.Second
		slowWindow = 6 * ruleWindow // the engine's slow burn window
		floodWaves = 8
		waveBatch  = 12
		waveInter  = 4
	)

	// Registry-first wiring, exactly like the daemon: ring and
	// controller must exist before the scheduler that consults them.
	reg := obs.NewRegistry()
	ring := tsdb.NewRing(reg, 512)
	engineRule, err := slo.ParseRule(
		"interactive_wait_p99: p99(reprod_sched_queue_wait_seconds{class=interactive}) < 250ms over 2s")
	if err != nil {
		t.Fatal(err)
	}
	engine := slo.New(slo.Config{Ring: ring, Registry: reg, Rules: []slo.Rule{engineRule}, Interval: tick})
	ctlRule, err := slo.ParseRule(
		fmt.Sprintf("brownout: p99(reprod_sched_queue_wait_seconds) < 60ms over %s", ruleWindow))
	if err != nil {
		t.Fatal(err)
	}
	ctl := loadctl.New(loadctl.Config{
		Ring: ring, Registry: reg, Rule: ctlRule, Engine: engine,
		EscalateTicks: 3, RelaxTicks: 2,
	})
	sched := newTestScheduler(t, SchedulerConfig{
		Workers: 2, QueueDepth: 32, RetainJobs: 4096,
		Metrics:     reg,
		LoadControl: ctl,
	})

	// The interactive path reads through a tiered store so the disk
	// seam sits on its request path.
	disk, err := store.OpenDisk(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := store.NewTiered[*Report](8, disk, ReportCodec())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCacheWithStore(tiered)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })

	// Faults: every job pays 10ms of injected latency (the overload —
	// 16-job waves drain at ~80ms per shard against 250ms ticks), and
	// every disk read stalls 5ms.
	restoreRun := faultinject.Activate("sched.run", &faultinject.Fault{Latency: 10 * time.Millisecond})
	defer restoreRun()
	restoreDisk := faultinject.Activate("store.disk.get", &faultinject.Fault{Latency: 5 * time.Millisecond})
	defer restoreDisk()

	// Synthetic clock: the engine's Tick collects the ring at the time
	// we hand it, so windows are deterministic regardless of how long
	// the waves really take.
	t0 := time.Now()
	now := t0
	engine.Tick(now) // baseline snapshot
	advance := func() {
		now = now.Add(tick)
		engine.Tick(now)
		ctl.Tick(now)
	}

	chaosSpec := func(seed uint64, priority string) Spec {
		return Spec{
			N: 1000, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7,
			Steps: 200, Seed: seed, Priority: priority,
		}
	}
	var mu sync.Mutex
	var batchShed, interShed, batchRan, interRan int
	var shedLevelSeen int
	runWave := func(wave int) {
		var wg sync.WaitGroup
		for i := 0; i < waveBatch+waveInter; i++ {
			spec := chaosSpec(uint64(wave*100+i), ClassBatch)
			interactive := i >= waveBatch
			if interactive {
				spec.Priority = ClassInteractive
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				hash, err := spec.Hash()
				if err != nil {
					t.Error(err)
					return
				}
				_, _, err = cache.Do(context.Background(), hash, func() (*Report, error) {
					job, err := sched.SubmitValidated(spec, hash)
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
				mu.Lock()
				defer mu.Unlock()
				var shed *ErrShed
				switch {
				case errors.As(err, &shed):
					if !errors.Is(err, ErrOverloaded) {
						t.Error("ErrShed does not unwrap to ErrOverloaded")
					}
					if shed.Level > shedLevelSeen {
						shedLevelSeen = shed.Level
					}
					if shed.Class == ClassBatch {
						batchShed++
					} else {
						interShed++
					}
				case err != nil:
					t.Errorf("wave %d job %d: %v", wave, i, err)
				case interactive:
					interRan++
				default:
					batchRan++
				}
			}()
		}
		wg.Wait()
	}

	maxLevel := 0
	for wave := 1; wave <= floodWaves; wave++ {
		runWave(wave)
		advance()
		if lvl := ctl.Level(); lvl > maxLevel {
			maxLevel = lvl
		}
	}

	// Graceful degradation during the flood: the controller engaged,
	// batch absorbed ~all of the shedding, and interactive kept
	// completing.
	if maxLevel < 1 {
		t.Fatalf("brownout never engaged: max level %d", maxLevel)
	}
	if shedLevelSeen < 1 {
		t.Errorf("no ErrShed carried a brownout level >= 1")
	}
	total := batchShed + interShed
	if total == 0 {
		t.Fatal("flood shed nothing; overload never materialized")
	}
	if ratio := float64(batchShed) / float64(total); ratio < 0.9 {
		t.Errorf("batch sheds %d of %d (%.0f%%), want >= 90%%", batchShed, total, ratio*100)
	}
	if interRan == 0 {
		t.Error("no interactive job completed during the flood")
	}

	// Recovery: with the flood over, the controller must be back at
	// level 0 within one slow SLO window of synthetic time.
	recovered := false
	for i := 0; i < int(slowWindow/tick); i++ {
		advance()
		if ctl.Level() == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Errorf("brownout level still %d after %s of calm (one slow SLO window)", ctl.Level(), slowWindow)
	}
	advance() // capture the recovered gauge into the ring

	// The ring — not private state — is the record of what happened.
	interSel := tsdb.Selector{
		Metric: "reprod_sched_queue_wait_seconds",
		Labels: map[string]string{"class": ClassInteractive},
	}
	if p99, ok := ring.Quantile(interSel, 0.99, now.Sub(t0)); !ok {
		t.Error("ring has no interactive queue-wait history")
	} else if p99 >= 0.25 {
		t.Errorf("interactive queue-wait p99 = %.3fs, want < 0.25s (default SLO threshold)", p99)
	}
	shedSel := func(class string) float64 {
		v, ok := ring.Gauge(tsdb.Selector{
			Metric: "reprod_sched_overload_rejections_total",
			Labels: map[string]string{"class": class},
		})
		if !ok {
			t.Fatalf("ring has no shed counter for class %q", class)
		}
		return v
	}
	rb, ri := shedSel(ClassBatch), shedSel(ClassInteractive)
	if int(rb) != batchShed || int(ri) != interShed {
		t.Errorf("ring shed counters (batch %v, interactive %v) disagree with observed errors (%d, %d)",
			rb, ri, batchShed, interShed)
	}
	levels := ring.SeriesGauge(tsdb.Selector{Metric: "reprod_brownout_level"})
	peak, final := 0.0, -1.0
	for _, s := range levels {
		if s.V > peak {
			peak = s.V
		}
		final = s.V
	}
	if peak < 1 {
		t.Errorf("ring brownout-level series never reached 1 (peak %v)", peak)
	}
	if final != 0 {
		t.Errorf("ring brownout-level series ends at %v, want 0", final)
	}
	t.Logf("chaos: max level %d, sheds batch=%d interactive=%d, ran batch=%d interactive=%d",
		maxLevel, batchShed, interShed, batchRan, interRan)
}
