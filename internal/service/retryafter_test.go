package service

import (
	"testing"
	"time"

	"repro/internal/obs/tsdb"
)

// TestRetryAfterFromDrainRate is the satellite regression: with a
// history ring attached, the 429 Retry-After hint is derived from the
// measured drain rate — backlog × mean run duration / workers — and
// clamped to [1s, 30s], instead of the old static "1".
func TestRetryAfterFromDrainRate(t *testing.T) {
	t.Parallel()

	sched := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 64})
	cache, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	ring := tsdb.NewRing(sched.Registry(), 64)
	srv := NewServer(sched, cache, WithHistory(ring))

	// Synthesize history: 10 completed runs of 2s each across a 20s
	// span, and a 10-deep backlog. Drain estimate: 10 × 2s / 1 worker
	// = 20s.
	t0 := time.Now()
	ring.Collect(t0)
	for i := 0; i < 10; i++ {
		sched.metrics.runDur.Observe(2.0)
	}
	sched.metrics.depth[0].Add(10)
	ring.Collect(t0.Add(20 * time.Second))

	if got := srv.retryAfterSeconds(ErrOverloaded); got != 20 {
		t.Errorf("retryAfterSeconds = %d, want 20 (10 jobs × 2s / 1 worker)", got)
	}

	// A deeper backlog clamps at the 30s ceiling.
	sched.metrics.depth[0].Add(90)
	if got := srv.retryAfterSeconds(ErrOverloaded); got != maxRetryAfter {
		t.Errorf("retryAfterSeconds deep backlog = %d, want clamp %d", got, maxRetryAfter)
	}
	sched.metrics.depth[0].Add(-100)

	// An empty backlog floors at 1s even with run history present.
	if got := srv.retryAfterSeconds(ErrOverloaded); got != minRetryAfter {
		t.Errorf("retryAfterSeconds empty backlog = %d, want %d", got, minRetryAfter)
	}
}

// TestRetryAfterShedHintWins: an ErrShed carrying its own backlog
// estimate overrides the drain-rate derivation, clamped the same way.
func TestRetryAfterShedHintWins(t *testing.T) {
	t.Parallel()

	sched := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueDepth: 4})
	cache, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sched, cache) // no history: fallback would be 1

	if got := srv.retryAfterSeconds(&ErrShed{RetryAfter: 5 * time.Second}); got != 5 {
		t.Errorf("shed hint 5s → %d, want 5", got)
	}
	if got := srv.retryAfterSeconds(&ErrShed{RetryAfter: 100 * time.Second}); got != maxRetryAfter {
		t.Errorf("shed hint 100s → %d, want clamp %d", got, maxRetryAfter)
	}
	if got := srv.retryAfterSeconds(&ErrShed{RetryAfter: 10 * time.Millisecond}); got != minRetryAfter {
		t.Errorf("shed hint 10ms → %d, want floor %d", got, minRetryAfter)
	}
	// Without a ring or a hint, the hint degrades to the old static 1.
	if got := srv.retryAfterSeconds(ErrOverloaded); got != minRetryAfter {
		t.Errorf("no history → %d, want %d", got, minRetryAfter)
	}
}
