package experiment

import (
	"fmt"
	"runtime"
	"sync"

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
	workers := runtime.GOMAXPROCS(0)
	if workers > reps {
		workers = reps
	}
	values := make([]float64, reps)
	errs := make([]error, reps)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range next {
				values[rep], errs[rep] = fn(rep)
			}
		}()
	}
	for rep := 0; rep < reps; rep++ {
		next <- rep
	}
	close(next)
	wg.Wait()
	for rep := 0; rep < reps; rep++ {
		if errs[rep] != nil {
			return out, fmt.Errorf("experiment: replication %d: %w", rep, errs[rep])
		}
		out.Add(values[rep])
	}
	return out, nil
}

// SeedFor derives replication rep's seed from a base seed by the v1
// schedule, rng.SeedFor; every experiment seeds its replications here.
func SeedFor(base uint64, rep int) uint64 { return rng.SeedFor(base, rep) }
