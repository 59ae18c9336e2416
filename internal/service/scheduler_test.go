package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

func newTestScheduler(t *testing.T, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewSchedulerValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewScheduler(SchedulerConfig{Workers: 0, QueueDepth: 1}); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 0}); err == nil {
		t.Error("queue depth=0 accepted")
	}
	if _, err := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1, RetainJobs: -1}); err == nil {
		t.Error("retain=-1 accepted")
	}
}

// TestSchedulerMatchesDirectRun is the core serving guarantee: a job
// with Replications=1 reproduces core.New(...).Run(...) with the same
// seed bit for bit.
func TestSchedulerMatchesDirectRun(t *testing.T) {
	t.Parallel()

	spec := Spec{
		N:         10_000,
		Qualities: []float64{0.9, 0.5, 0.5},
		Beta:      0.7,
		Steps:     500,
		Seed:      123,
	}
	s := newTestScheduler(t, SchedulerConfig{Workers: 2, QueueDepth: 4})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.Status() != JobDone {
		t.Fatalf("status %s, err %v", job.Status(), job.Err())
	}
	got := job.Report()

	g, err := core.New(core.Config{
		N: 10_000, Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Seed: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if got.Regret != want.Regret {
		t.Errorf("Regret %v, want %v", got.Regret, want.Regret)
	}
	if got.AverageGroupReward != want.AverageGroupReward {
		t.Errorf("AverageGroupReward %v, want %v", got.AverageGroupReward, want.AverageGroupReward)
	}
	if len(got.Popularity) != len(want.Popularity) {
		t.Fatalf("popularity lengths differ: %d vs %d", len(got.Popularity), len(want.Popularity))
	}
	for j := range want.Popularity {
		if got.Popularity[j] != want.Popularity[j] {
			t.Errorf("Popularity[%d] = %v, want %v", j, got.Popularity[j], want.Popularity[j])
		}
	}
	if got.RegretStdDev != 0 {
		t.Errorf("RegretStdDev = %v with one replication", got.RegretStdDev)
	}
	if got.BestQuality != 0.9 {
		t.Errorf("BestQuality = %v", got.BestQuality)
	}
}

// TestSchedulerReplications checks multi-replication averaging
// tightens the estimate and fills the spread field.
func TestSchedulerReplications(t *testing.T) {
	t.Parallel()

	spec := Spec{
		N:            2_000,
		Qualities:    []float64{0.8, 0.4},
		Beta:         0.65,
		Steps:        300,
		Replications: 8,
		Seed:         7,
	}
	s := newTestScheduler(t, SchedulerConfig{Workers: 2, QueueDepth: 4})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := job.Report()
	if rep == nil || rep.Replications != 8 {
		t.Fatalf("report %+v", rep)
	}
	if rep.RegretStdDev <= 0 {
		t.Errorf("RegretStdDev = %v, want > 0 across independent seeds", rep.RegretStdDev)
	}
	sum := 0.0
	for _, p := range rep.Popularity {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mean popularity sums to %v", sum)
	}
	if math.Abs(rep.BestQuality-rep.Regret-rep.AverageGroupReward) > 1e-12 {
		t.Errorf("identity broken: η1=%v regret=%v reward=%v",
			rep.BestQuality, rep.Regret, rep.AverageGroupReward)
	}
}

// waitRunning polls until job is running, failing the test after 5s.
func waitRunning(t *testing.T, job *Job) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); job.Status() != JobRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running (status %s)", job.ID(), job.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// slowSpec is a job far longer than any test waits for; tests cancel
// it.
func slowSpec(seed uint64) Spec {
	spec := validSpec()
	spec.Steps = 40_000_000
	spec.Seed = seed
	return spec
}

// TestSchedulerAdmissionControl holds every worker with a slow
// blocker, fills the queue's Workers × QueueDepth slots, and checks
// the next submission gets the explicit overload error.
func TestSchedulerAdmissionControl(t *testing.T) {
	t.Parallel()

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()

			s := newTestScheduler(t, SchedulerConfig{Workers: workers, QueueDepth: 2})
			for i := range workers {
				blocker, err := s.Submit(slowSpec(uint64(10 + i)))
				if err != nil {
					t.Fatal(err)
				}
				defer blocker.Cancel()
				waitRunning(t, blocker)
			}
			for i := range 2 * workers {
				spec := validSpec()
				spec.Seed = uint64(100 + i)
				if _, err := s.Submit(spec); err != nil {
					t.Fatalf("queued submit %d: %v", i, err)
				}
			}
			spec := validSpec()
			spec.Seed = 999
			if _, err := s.Submit(spec); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("Submit over capacity = %v, want ErrOverloaded", err)
			}
			if got := s.Stats().Queued; got != 2*workers {
				t.Errorf("Queued = %d, want %d", got, 2*workers)
			}
		})
	}
}

// TestSchedulerCancellation cancels a long-running job and checks it
// stops promptly with the canceled state.
func TestSchedulerCancellation(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 2})
	spec := validSpec()
	spec.Steps = 40_000_000 // far more work than the test allows time for
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job did not stop after cancel: %v", err)
	}
	if job.Status() != JobCanceled {
		t.Errorf("status %s, want canceled", job.Status())
	}
	if !errors.Is(job.Err(), context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", job.Err())
	}
	if job.Report() != nil {
		t.Error("canceled job has a report")
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Errorf("Canceled = %d, want 1", got)
	}
}

// TestSchedulerCancelQueued cancels a job before its worker reaches it.
func TestSchedulerCancelQueued(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	slow := validSpec()
	slow.Steps = 40_000_000
	blocker, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	deadline := time.Now().Add(5 * time.Second)
	for blocker.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	blocker.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := queued.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if queued.Status() != JobCanceled {
		t.Errorf("status %s, want canceled", queued.Status())
	}
}

// TestSchedulerCloseDrains submits a batch, closes, and checks every
// job reached a terminal state (drained, not dropped).
func TestSchedulerCloseDrains(t *testing.T) {
	t.Parallel()

	s, err := NewScheduler(SchedulerConfig{Workers: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 10; i++ {
		spec := validSpec()
		spec.Seed = uint64(i)
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	s.Close()
	for i, job := range jobs {
		select {
		case <-job.done:
		default:
			t.Fatalf("job %d not terminal after Close", i)
		}
		if job.Status() != JobDone {
			t.Errorf("job %d status %s after drain", i, job.Status())
		}
	}
	if _, err := s.Submit(validSpec()); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if got := s.Stats().Completed; got != 10 {
		t.Errorf("Completed = %d, want 10", got)
	}
}

// TestSchedulerJobLookupAndRetention checks Job lookup and the
// finished-job retention bound.
func TestSchedulerJobLookupAndRetention(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 2, QueueDepth: 8, RetainJobs: 3})
	// Submit and wait one at a time so finish order equals submit
	// order and retention is deterministic.
	var last *Job
	for i := 0; i < 6; i++ {
		spec := validSpec()
		spec.Seed = uint64(i)
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		last = job
	}
	if _, err := s.Job(last.ID()); err != nil {
		t.Errorf("recent job evicted: %v", err)
	}
	if _, err := s.Job("j-no-such"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown lookup = %v, want ErrUnknownJob", err)
	}
	s.mu.Lock()
	retained := len(s.doneQ)
	s.mu.Unlock()
	if retained > 3 {
		t.Errorf("retained %d finished jobs, want ≤ 3", retained)
	}
}

// TestRunSpecTrace checks the trajectory a job records through the
// scheduler — its shape, that the report it rides with is the job's
// own, and that it is replication 0's even when the job runs several —
// under v1, v2, and a ring topology.
func TestRunSpecTrace(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	ring := &Topology{Kind: "ring", Nodes: 40}
	for _, shape := range []struct {
		reps  int
		order string
		topo  *Topology
	}{{1, "", nil}, {3, "", nil}, {3, "v2", nil}, {3, "", ring}, {3, "v2", ring}} {
		spec := validSpec()
		spec.Steps = 100
		spec.TraceEvery = 10
		spec.Replications, spec.DrawOrder, spec.Topology = shape.reps, shape.order, shape.topo
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%+v", shape)
		job, err := s.SubmitValidated(spec, hash)
		if err != nil {
			t.Fatal(err)
		}
		report := waitDone(t, label, job)
		rec := job.Trace()
		if rec == nil {
			t.Fatalf("%s: no trace recorded", label)
		}
		if rec.Len() != 10 {
			t.Fatalf("%s: trace rows = %d, want 10", label, rec.Len())
		}
		lastRow := rec.Row(rec.Len() - 1)
		if lastRow[0] != 91 { // rows kept at t = 1, 11, ..., 91
			t.Errorf("%s: last recorded t = %v, want 91", label, lastRow[0])
		}
		if len(lastRow) != 2+len(spec.Qualities) {
			t.Errorf("%s: row width %d, want %d", label, len(lastRow), 2+len(spec.Qualities))
		}
		if report.SpecHash != hash {
			t.Errorf("%s: report hash %s, want %s", label, report.SpecHash, hash)
		}

		// Replication 0 alone records the same rows.
		one := spec
		one.Replications = 1
		solo, err := s.Submit(one)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, label+" replication 0", solo)
		if solo.Trace().Len() != rec.Len() {
			t.Fatalf("%s: replication 0 alone recorded %d rows, want %d", label, solo.Trace().Len(), rec.Len())
		}
		for i := 0; i < rec.Len(); i++ {
			got, want := rec.Row(i), solo.Trace().Row(i)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: row %d col %d = %v, want replication 0's %v", label, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestSchedulerJobTimeout checks that a running job is canceled by the
// server-side JobTimeout and surfaces as JobFailed with ErrJobTimeout,
// so no single admitted job can occupy a worker indefinitely.
func TestSchedulerJobTimeout(t *testing.T) {
	t.Parallel()

	sched, err := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 4, JobTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	spec := validSpec()
	spec.Steps = MaxSteps // minutes of work, far beyond the 10ms budget
	job, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job did not finish after timeout: %v", err)
	}
	if job.Status() != JobFailed {
		t.Errorf("status = %s, want %s", job.Status(), JobFailed)
	}
	if err := job.Err(); !errors.Is(err, ErrJobTimeout) {
		t.Errorf("job error = %v, want ErrJobTimeout", err)
	}
	if st := sched.Stats(); st.Failed != 1 {
		t.Errorf("failed count = %d, want 1", st.Failed)
	}
}

// TestSchedulerCancelFreesQueueSlot is the regression test for
// canceled-but-queued jobs pinning admission: canceling a queued job
// must free its queue slot immediately (and finish the job) so live
// traffic is not bounced with ErrOverloaded until a worker happens to
// drain the corpse.
func TestSchedulerCancelFreesQueueSlot(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 2})
	blocker := validSpec()
	blocker.Steps = 40_000_000
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	defer bjob.Cancel()
	deadline := time.Now().Add(5 * time.Second)
	for bjob.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Fill the queue, then cancel both queued jobs.
	var queued []*Job
	for i := 0; i < 2; i++ {
		spec := validSpec()
		spec.Seed = uint64(300 + i)
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, job)
	}
	if _, err := s.Submit(validSpec()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("pre-cancel over capacity = %v, want ErrOverloaded", err)
	}
	for i, job := range queued {
		job.Cancel()
		// The cancel settles synchronously: no worker ever saw the job.
		select {
		case <-job.done:
		default:
			t.Fatalf("canceled queued job %d not terminal", i)
		}
		if job.Status() != JobCanceled {
			t.Errorf("canceled queued job %d status %s", i, job.Status())
		}
	}
	// Both slots are free again while the blocker still runs.
	for i := 0; i < 2; i++ {
		spec := validSpec()
		spec.Seed = uint64(400 + i)
		if _, err := s.Submit(spec); err != nil {
			t.Errorf("post-cancel submit %d = %v, want admitted", i, err)
		}
	}
	if got := s.Stats().Canceled; got != 2 {
		t.Errorf("Canceled = %d, want 2", got)
	}
}

// TestSchedulerCancelLatencyScalesWithStepCost is the regression test
// for the fixed 2048-step context-check interval: a max-size agent
// spec (10⁶ agents) used to run up to ~2×10⁹ operations between
// checks, so cancellation could overshoot by tens of seconds. A
// running job stops at its next step, so it must stop within a small
// wall-clock bound.
func TestSchedulerCancelLatencyScalesWithStepCost(t *testing.T) {
	t.Parallel()

	spec := validSpec()
	spec.Engine = "agent"
	spec.N = MaxAgentPopulation
	spec.Steps = 10_000 // work = 10¹⁰ = MaxWork exactly: admitted
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 2})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.Status() != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if job.Status() != JobRunning {
		t.Fatal("job never started")
	}
	start := time.Now()
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job did not stop after cancel: %v", err)
	}
	// A handful of ~10⁶-operation steps; generous headroom for -race
	// and loaded CI. The unscaled 2048-step interval needs minutes.
	if latency := time.Since(start); latency > 5*time.Second {
		t.Errorf("cancellation latency %s, want < 5s", latency)
	}
	if job.Status() != JobCanceled {
		t.Errorf("status %s, want canceled", job.Status())
	}
}

// TestNewSchedulerRejectsNegativeTimeout covers the config check.
func TestNewSchedulerRejectsNegativeTimeout(t *testing.T) {
	t.Parallel()

	if _, err := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 1, JobTimeout: -time.Second,
	}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative JobTimeout accepted: %v", err)
	}
}

// TestSoloJobFansOut pins that a solo job's replications fan out
// through the sweep gate like a sweep's tasks: at two workers, so two
// gate slots, a two-replication job holds both slots at once.
func TestSoloJobFansOut(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 2, QueueDepth: 4})
	spec := validSpec()
	spec.Steps, spec.Replications = 20_000_000, 2 // seconds per replication
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Cancel()
	for deadline := time.Now().Add(10 * time.Second); len(s.sweepGate) != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("solo job with 2 replications holds %d of 2 gate slots (status %s)", len(s.sweepGate), job.Status())
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil || job.Status() != JobCanceled {
		t.Fatalf("status %s after cancel (wait: %v), want canceled", job.Status(), err)
	}
}

// TestSoloJobWaitsForGateSlot pins that a solo job computes only while
// it holds a gate slot: with every slot taken it waits, and its
// JobTimeout runs while it does; once a slot is free, solo jobs run.
func TestSoloJobWaitsForGateSlot(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4,
		JobTimeout: 100 * time.Millisecond})
	s.sweepGate <- struct{}{}
	job, err := s.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if job.Status() != JobFailed || !errors.Is(job.Err(), ErrJobTimeout) {
		t.Errorf("solo job with every gate slot held: status %s, err %v; want failed with ErrJobTimeout",
			job.Status(), job.Err())
	}
	<-s.sweepGate
	spec := validSpec()
	spec.Seed = 43
	job, err = s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, "solo job after the slot was released", job)
}

// TestQueuedSoloJobsPassRunSeam pins that every single-spec job passes
// the sched.run fault seam, including same-family specs that queue up
// together behind a busy worker and drain in one pass.
//
// Deliberately not parallel: the fault-injection seams are
// process-global.
func TestQueuedSoloJobsPassRunSeam(t *testing.T) {
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	blocker := validSpec()
	blocker.Steps = 40_000_000
	bjob, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Running rises only once a job is past the seam, so the fault
	// armed below cannot hit the blocker.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Running != 1; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(time.Millisecond)
	}
	injected := errors.New("injected run fault")
	defer faultinject.Activate("sched.run", &faultinject.Fault{Err: injected})()

	var jobs []*Job
	for i := 0; i < 2; i++ {
		spec := validSpec()
		spec.Seed = uint64(700 + i)
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	bjob.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if job.Status() != JobFailed || !errors.Is(job.Err(), injected) {
			t.Errorf("job %d: status %s, err %v; want failed with the injected fault",
				i, job.Status(), job.Err())
		}
	}
}

// TestCancelReapsJobBehindRunningJob pins that a queued job stays
// reapable while the job ahead of it runs: canceling it settles it at
// once instead of leaving it queued until the worker reaches it.
func TestCancelReapsJobBehindRunningJob(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	blocker, err := s.Submit(slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	waitRunning(t, blocker)
	b, err := s.Submit(slowSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Cancel()
	c, err := s.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	blocker.Cancel()
	waitRunning(t, b)
	c.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil || c.Status() != JobCanceled {
		t.Fatalf("job queued behind a running job: status %s after cancel (wait: %v), want canceled within 1s",
			c.Status(), err)
	}
	if got := b.Status(); got != JobRunning {
		t.Errorf("running job status %s after canceling the job behind it, want running", got)
	}
}

// TestInteractiveOvertakesQueuedBatch pins the dequeue order: an
// interactive job submitted while a batch job runs starts before the
// batch job queued ahead of it.
func TestInteractiveOvertakesQueuedBatch(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	blocker, err := s.Submit(slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	waitRunning(t, blocker)
	batch := slowSpec(2)
	batch.Priority = ClassBatch
	b1, err := s.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Cancel()
	batch = validSpec()
	batch.Priority = ClassBatch
	b2, err := s.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	blocker.Cancel()
	waitRunning(t, b1)
	inter, err := s.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	b1.Cancel()
	waitDone(t, "interactive job", inter)
	waitDone(t, "queued batch job", b2)
	_, interStart, _ := inter.Times()
	_, batchStart, _ := b2.Times()
	if !interStart.Before(batchStart) {
		t.Errorf("interactive job started %s, not before the queued batch job (%s)",
			interStart.Format(time.StampMicro), batchStart.Format(time.StampMicro))
	}
}
