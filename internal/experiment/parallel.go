package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// ParallelSummary runs fn for reps independent replications across a
// bounded worker pool and merges the per-replication scalar results into
// a Summary. Replication index is passed to fn so it can derive an
// independent seed; the merge order is deterministic (by replication),
// so results do not depend on scheduling.
func ParallelSummary(reps int, fn func(rep int) (float64, error)) (stats.Summary, error) {
	var out stats.Summary
	if reps <= 0 || fn == nil {
		return out, fmt.Errorf("%w: reps=%d", ErrBadOptions, reps)
	}
	values := make([]float64, reps)
	errs := make([]error, reps)
	claimAll(context.TODO(), int64(reps), runtime.GOMAXPROCS(0), func() func(int64) {
		return func(rep int64) { values[rep], errs[rep] = fn(int(rep)) }
	})
	for rep := 0; rep < reps; rep++ {
		if errs[rep] != nil {
			return out, fmt.Errorf("experiment: replication %d: %w", rep, errs[rep])
		}
		out.Add(values[rep])
	}
	return out, nil
}

// claimAll runs each index of [0, n) once on up to workers goroutines,
// the caller's among them, each running what its own newWorker call
// returns. Workers claim indices in ascending order from one atomic
// cursor, with no feeder between tasks, and stop claiming once ctx is
// done, leaving the unclaimed indices unrun.
func claimAll(ctx context.Context, n int64, workers int, newWorker func() func(i int64)) {
	var cursor atomic.Int64
	work := func() {
		run := newWorker()
		for ctx.Err() == nil {
			i := cursor.Add(1) - 1
			if i >= n {
				return
			}
			run(i)
		}
	}
	var wg sync.WaitGroup
	for range min(int64(workers), n) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
}

// SeedFor derives replication rep's seed from a base seed by the v1
// schedule, rng.SeedFor; every experiment seeds its replications here.
func SeedFor(base uint64, rep int) uint64 { return rng.SeedFor(base, rep) }
