package service

import (
	"context"
	"math"
	"testing"

	"repro/internal/store"
)

// v2Spec is a replication-heavy spec small enough for tests, with
// enough replications to cross a block boundary under the default
// width when run through the scheduler.
func v2Spec() Spec {
	s := validSpec()
	s.Replications = 5
	s.DrawOrder = "v2"
	return s
}

// TestRunSpecV2MatchesBlockReference pins the serving path against the
// core seam: a v2 spec run through the scheduler — as replication
// blocks wider than one lane — must equal the single-lane-block
// reference merged in replication order, the same chunk-invariance
// contract the lower layers pin, here through the report arithmetic.
func TestRunSpecV2MatchesBlockReference(t *testing.T) {
	t.Parallel()

	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	spec := v2Spec()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, "v2 spec", job)
	assertReportsEqual(t, "v2 spec", got, referenceReport(t, spec))

	// And it must NOT reproduce the v1 report for the same parameters.
	v1 := spec
	v1.DrawOrder = ""
	rep1 := referenceReport(t, v1)
	if math.Float64bits(rep1.AverageGroupReward) == math.Float64bits(got.AverageGroupReward) {
		t.Error("v2 report reproduced the v1 reward — the contracts must be distinct")
	}
}

// TestDrawOrderCrossVersionDurability is the migration guarantee for
// persisted stores: a v1 report written through the tiered store
// before the versioned surface replays bit-identically after a
// restart (its key and bytes never moved), while the same parameters
// under v2 are a different key computing a different result — old
// entries are never silently reinterpreted.
func TestDrawOrderCrossVersionDurability(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	open := func() *store.Tiered[*Report] {
		t.Helper()
		disk, err := store.OpenDisk(dir, store.DiskOptions{FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		tiered, err := store.NewTiered[*Report](4, disk, ReportCodec())
		if err != nil {
			t.Fatal(err)
		}
		return tiered
	}

	v1 := validSpec()
	v1.Replications = 3
	rep1 := referenceReport(t, v1)
	h1 := rep1.SpecHash

	tiered := open()
	tiered.Put(h1, rep1)
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory must replay the
	// v1 report exactly.
	tiered = open()
	defer tiered.Close()
	back, ok := tiered.Get(h1)
	if !ok {
		t.Fatal("persisted v1 report lost across restart")
	}
	if back.SpecHash != rep1.SpecHash ||
		math.Float64bits(back.AverageGroupReward) != math.Float64bits(rep1.AverageGroupReward) ||
		math.Float64bits(back.Regret) != math.Float64bits(rep1.Regret) ||
		math.Float64bits(back.RegretStdDev) != math.Float64bits(rep1.RegretStdDev) {
		t.Fatalf("replayed v1 report differs: %+v vs %+v", back, rep1)
	}
	for j := range rep1.Popularity {
		if math.Float64bits(back.Popularity[j]) != math.Float64bits(rep1.Popularity[j]) {
			t.Fatalf("replayed popularity[%d] = %v, want %v", j, back.Popularity[j], rep1.Popularity[j])
		}
	}

	// The same parameters under v2 are a different key — a v2 request
	// can never be served the stale v1 bytes — and a different result.
	v2 := v1
	v2.DrawOrder = "v2"
	h2, err := v2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("v2 spec hashed onto the persisted v1 key")
	}
	if _, ok := tiered.Get(h2); ok {
		t.Fatal("v2 key unexpectedly present in a store that only saw v1")
	}
	rep2 := referenceReport(t, v2)
	if math.Float64bits(rep2.AverageGroupReward) == math.Float64bits(rep1.AverageGroupReward) {
		t.Error("v2 computation reproduced the persisted v1 reward")
	}
}

// TestSchedulerRunsV2EndToEnd submits a v2 spec and a v2 sweep through
// the scheduler and checks both agree with the reference — the wiring
// test that DrawOrder survives Submit and the sweep variant mapping.
func TestSchedulerRunsV2EndToEnd(t *testing.T) {
	t.Parallel()

	sched, err := NewScheduler(SchedulerConfig{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	spec := v2Spec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceReport(t, spec)

	job, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	got := job.Report()
	if math.Float64bits(got.AverageGroupReward) != math.Float64bits(want.AverageGroupReward) ||
		math.Float64bits(got.Regret) != math.Float64bits(want.Regret) {
		t.Errorf("scheduled v2 report %+v, want %+v", got, want)
	}

	sw := SweepSpec{
		Family: SweepFamily{
			Qualities: spec.Qualities,
			Beta:      spec.Beta,
			DrawOrder: "v2",
		},
		Variants: []SweepVariant{
			{N: spec.N, Steps: spec.Steps, Seed: spec.Seed, Replications: spec.Replications},
		},
	}
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	swHash, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}
	variantHashes, err := sw.variantHashes()
	if err != nil {
		t.Fatal(err)
	}
	if variantHashes[0] != hash {
		t.Fatalf("sweep variant hash %s, want the single-spec v2 key %s", variantHashes[0], hash)
	}
	swJob, err := sched.SubmitSweep(sw, swHash, variantHashes)
	if err != nil {
		t.Fatal(err)
	}
	if err := swJob.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if swJob.Err() != nil {
		t.Fatal(swJob.Err())
	}
	reports := swJob.Reports()
	if len(reports) != 1 {
		t.Fatalf("got %d sweep reports, want 1", len(reports))
	}
	if math.Float64bits(reports[0].AverageGroupReward) != math.Float64bits(want.AverageGroupReward) ||
		math.Float64bits(reports[0].Regret) != math.Float64bits(want.Regret) {
		t.Errorf("swept v2 report %+v, want %+v", reports[0], want)
	}
}
