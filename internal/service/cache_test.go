package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

func TestNewCacheValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewCache(-1); err == nil {
		t.Error("capacity=-1 accepted")
	}
}

func TestCacheHitAndIdenticalReport(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	want := &Report{SpecHash: "k1", Regret: 0.25}
	r1, cached, err := c.Do(context.Background(), "k1", func() (*Report, error) { return want, nil })
	if err != nil || cached {
		t.Fatalf("first Do: report=%v cached=%v err=%v", r1, cached, err)
	}
	r2, cached, err := c.Do(context.Background(), "k1", func() (*Report, error) {
		t.Error("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if r1 != r2 {
		t.Error("cache hit returned a different report pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", st.HitRate)
	}
}

// TestCacheSingleFlight launches many concurrent identical requests
// and checks compute ran exactly once; run under -race this also
// proves the flight plumbing is data-race free.
func TestCacheSingleFlight(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	reports := make([]*Report, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], _, errs[i] = c.Do(context.Background(), "hot", func() (*Report, error) {
				computes.Add(1)
				<-release // hold the flight open until everyone queued
				return &Report{SpecHash: "hot"}, nil
			})
		}(i)
	}
	// Give every goroutine a chance to join the flight, then release.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Misses+st.Waits+st.Hits >= callers || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if reports[i] != reports[0] {
			t.Errorf("caller %d got a different report", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Waits != callers-1 {
		t.Errorf("hits+waits = %d, want %d", st.Hits+st.Waits, callers-1)
	}
}

// TestCacheErrorNotStored checks failed computations are not cached
// and are shared with concurrent waiters.
func TestCacheErrorNotStored(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (*Report, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	if c.Stats().Size != 0 {
		t.Error("failed result stored")
	}
	// The key retries after a failure.
	report, cached, err := c.Do(context.Background(), "k", func() (*Report, error) {
		return &Report{SpecHash: "k"}, nil
	})
	if err != nil || cached || report == nil {
		t.Errorf("retry after failure: report=%v cached=%v err=%v", report, cached, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	t.Parallel()

	mem, err := store.NewMemory[*Report](2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCacheWithStore(mem)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(key string) {
		t.Helper()
		if _, _, err := c.Do(context.Background(), key, func() (*Report, error) {
			return &Report{SpecHash: key}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	if _, ok := mem.Get("a"); !ok { // bump a → b is now LRU
		t.Fatal("a missing")
	}
	mk("c") // evicts b
	if _, ok := mem.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := mem.Get("a"); !ok {
		t.Error("recently used a evicted")
	}
	if _, ok := mem.Get("c"); !ok {
		t.Error("new c missing")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats %+v", st)
	}
}

// TestCacheZeroCapacity keeps single-flight semantics without storing.
func TestCacheZeroCapacity(t *testing.T) {
	t.Parallel()

	c, err := NewCache(0)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do(context.Background(), "k", func() (*Report, error) {
			calls++
			return &Report{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("capacity 0 cached: %d calls, want 2", calls)
	}
	if size := c.Stats().Size; size != 0 {
		t.Errorf("Size = %d, want 0", size)
	}
}

// TestCacheWaiterContext checks an expired waiter abandons the flight
// while the computation still completes and populates the cache.
func TestCacheWaiterContext(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "slow", func() (*Report, error) {
			close(started)
			<-release
			return &Report{SpecHash: "slow"}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "slow", func() (*Report, error) {
		return nil, fmt.Errorf("must not run")
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Size == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if report, cached, err := c.Do(context.Background(), "slow", func() (*Report, error) {
		return nil, fmt.Errorf("must not run")
	}); err != nil || !cached || report == nil {
		t.Errorf("abandoned computation did not populate the cache: report=%v cached=%v err=%v", report, cached, err)
	}
}

// TestCacheFollowerRetriesOverload checks that a deduplicated follower
// does not inherit the leader's submit-time ErrOverloaded: the queue
// may have drained by the time the follower observes the failure, so
// it retries Do once and runs the computation itself.
func TestCacheFollowerRetriesOverload(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	release := make(chan struct{})
	compute := func() (*Report, error) {
		if calls.Add(1) == 1 {
			<-release // hold the flight open until the follower joined
			return nil, ErrOverloaded
		}
		return &Report{SpecHash: "k"}, nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", compute)
		leaderErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Misses == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	type result struct {
		report *Report
		cached bool
		err    error
	}
	followerRes := make(chan result, 1)
	go func() {
		report, cached, err := c.Do(context.Background(), "k", compute)
		followerRes <- result{report, cached, err}
	}()
	for c.Stats().Waits == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := <-leaderErr; !errors.Is(err, ErrOverloaded) {
		t.Errorf("leader error = %v, want ErrOverloaded", err)
	}
	res := <-followerRes
	if res.err != nil || res.report == nil || res.report.SpecHash != "k" {
		t.Fatalf("follower retry: report=%v cached=%v err=%v", res.report, res.cached, res.err)
	}
	if res.cached {
		t.Error("follower led the retry flight; cached should be false")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2 (failed leader + follower retry)", got)
	}
	// The follower's abandoned join is re-classified, not double
	// counted: two calls, two misses, no residual wait in the hit rate.
	if st := c.Stats(); st.Waits != 0 || st.Misses != 2 {
		t.Errorf("stats after retry: waits=%d misses=%d, want 0 and 2", st.Waits, st.Misses)
	}
}

// TestCacheFollowerInheritsBrownoutShed is the counterpart to the
// retry test above: when the leader's rejection was a brownout shed
// (ErrShed with Level >= 1), the controller is deliberately turning
// this class of work away, so the follower must observe the typed
// error as-is — class and level intact — instead of retrying and
// resubmitting exactly the traffic the brownout exists to shed.
func TestCacheFollowerInheritsBrownoutShed(t *testing.T) {
	t.Parallel()

	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	shedErr := &ErrShed{Class: ClassBatch, Level: 1, Reason: "brownout"}
	var calls atomic.Int32
	release := make(chan struct{})
	compute := func() (*Report, error) {
		calls.Add(1)
		<-release
		return nil, shedErr
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", compute)
		leaderErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Misses == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", compute)
		followerErr <- err
	}()
	for c.Stats().Waits == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := <-leaderErr; !errors.Is(err, ErrOverloaded) {
		t.Errorf("leader error = %v, want ErrOverloaded via ErrShed", err)
	}
	err = <-followerErr
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("follower error = %v, want the leader's ErrShed", err)
	}
	if shed.Class != ClassBatch || shed.Level != 1 {
		t.Errorf("follower shed = %+v, want class %q level 1", shed, ClassBatch)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1 (no follower retry under brownout)", got)
	}
}

// hookStore wraps a memory store and runs onGet between reading a key
// and returning what it read: a stand-in for a slow disk read, or for
// work racing one.
type hookStore struct {
	store.Store[*Report]
	onGet func(key string)
}

func (h *hookStore) Get(key string) (*Report, bool) {
	r, ok := h.Store.Get(key)
	h.onGet(key)
	return r, ok
}

// newHookCache returns a cache over a hookStore and the memory store
// behind it, which a test may seed without running onGet.
func newHookCache(t *testing.T, onGet func(key string)) (*Cache, store.Store[*Report]) {
	t.Helper()
	mem, err := store.NewMemory[*Report](8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCacheWithStore(&hookStore{Store: mem, onGet: onGet})
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

// TestCacheSlowReadDoesNotBlockLookups stalls the store read of one
// key: a hit on another key must still be served meanwhile, so one
// slow disk read cannot queue every request behind it.
func TestCacheSlowReadDoesNotBlockLookups(t *testing.T) {
	t.Parallel()
	stall, stalled := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c, mem := newHookCache(t, func(key string) {
		if key == "slow" {
			once.Do(func() { close(stalled) })
			<-stall
		}
	})
	mem.Put("fast", &Report{SpecHash: "fast"})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		_, _, _ = c.Do(context.Background(), "slow", func() (*Report, error) {
			return &Report{SpecHash: "slow"}, nil
		})
	}()
	<-stalled
	got := make(chan *Report, 1)
	go func() {
		r, _, _ := c.Do(context.Background(), "fast", func() (*Report, error) {
			return nil, errors.New("compute ran on a stored key")
		})
		got <- r
	}()
	select {
	case r := <-got:
		if r == nil || r.SpecHash != "fast" {
			t.Errorf("hit on fast = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Error("a hit on another key waited on a stalled store read")
	}
	close(stall)
	<-slowDone
}

// TestCacheMissRacingPublishComputesOnce lets a whole flight for a key
// run and publish while another caller's first store read of that key
// is in progress (and missing). That caller must find the published
// report when it registers its own flight, not compute a second time.
func TestCacheMissRacingPublishComputesOnce(t *testing.T) {
	t.Parallel()
	var computes atomic.Int32
	compute := func() (*Report, error) {
		computes.Add(1)
		return &Report{SpecHash: "k"}, nil
	}
	var c *Cache
	var raced atomic.Bool
	c, _ = newHookCache(t, func(key string) {
		if !raced.CompareAndSwap(false, true) {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, _, err := c.Do(context.Background(), key, compute); err != nil {
				t.Error(err)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("a concurrent flight could not run during a store read")
		}
	})
	r, cached, err := c.Do(context.Background(), "k", compute)
	if err != nil || r == nil || !cached {
		t.Fatalf("Do = %+v, cached=%v, err=%v; want the published report", r, cached, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Waits != 0 {
		t.Errorf("stats %+v, want one hit and one miss", st)
	}
}
