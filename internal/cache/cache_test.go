package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[string, int](1 << 20)
	calls := 0
	compute := func() (int, int64, error) { calls++; return 42, 8, nil }

	v, hit, err := c.Do(context.Background(), "k", compute)
	if err != nil || hit || v != 42 {
		t.Fatalf("first Do = %d,%v,%v", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), "k", compute)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second Do = %d,%v,%v", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 8 {
		t.Errorf("stats = %+v", s)
	}
}

// put stores v under an absent key through Do.
func put[K comparable, V any](t *testing.T, c *LRU[K, V], key K, v V, cost int64) {
	t.Helper()
	if _, hit, err := c.Do(context.Background(), key, func() (V, int64, error) { return v, cost, nil }); hit || err != nil {
		t.Fatalf("put(%v) = hit %v, err %v", key, hit, err)
	}
}

// cached returns key's entry through Do, failing the test when Do
// has to compute it.
func cached[K comparable, V any](t *testing.T, c *LRU[K, V], key K) V {
	t.Helper()
	v, hit, err := c.Do(context.Background(), key, func() (V, int64, error) {
		var zero V
		return zero, 0, errors.New("not cached")
	})
	if !hit || err != nil {
		t.Fatalf("key %v not cached: hit %v, err %v", key, hit, err)
	}
	return v
}

func TestEvictionOrderAndBudget(t *testing.T) {
	c := New[int, string](30)
	for i := 0; i < 3; i++ {
		put(t, c, i, fmt.Sprint(i), 10) // fills the budget exactly
	}
	cached(t, c, 0)
	// Entry 0 is now most recent; adding one more must evict 1 (LRU).
	put(t, c, 3, "3", 10)
	if c.Contains(1) {
		t.Error("LRU entry 1 not evicted")
	}
	for _, want := range []int{0, 2, 3} {
		if !c.Contains(want) {
			t.Errorf("entry %d missing", want)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 30 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New[string, int](10)
	put(t, c, "big", 1, 100)
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("oversized entry stored: %+v", s)
	}
}

// TestSingleFlight: concurrent Do calls for one key run compute once;
// everyone gets the value, late callers count as coalesced or hits.
func TestSingleFlight(t *testing.T) {
	c := New[string, int](1 << 20)
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (int, int64, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, 1, nil
	}
	var wg sync.WaitGroup
	results := make(chan int, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do(context.Background(), "k", compute)
		if err != nil {
			t.Error(err)
		}
		results <- v
	}()
	<-started
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func() (int, int64, error) {
				t.Error("second compute ran")
				return 0, 0, nil
			})
			if err != nil || !hit {
				t.Errorf("waiter: %d,%v,%v", v, hit, err)
			}
			results <- v
		}()
	}
	time.Sleep(20 * time.Millisecond) // let waiters enqueue
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 7 {
			t.Errorf("result %d, want 7", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

// TestLeaderFailureDoesNotPoisonWaiters: when the leader's compute
// fails (e.g. its request was cancelled), a waiter retries as the new
// leader instead of inheriting the error.
func TestLeaderFailureDoesNotPoisonWaiters(t *testing.T) {
	c := New[string, int](1 << 20)
	boom := errors.New("leader cancelled")
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (int, int64, error) {
			close(started)
			<-release
			return 0, 0, boom
		})
		leaderDone <- err
	}()
	<-started

	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func() (int, int64, error) {
			return 9, 1, nil
		})
		if v != 9 && err == nil {
			t.Errorf("waiter got %d, want 9", v)
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Errorf("leader err = %v, want %v", err, boom)
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter err = %v, want nil (retried)", err)
	}
	if v := cached(t, c, "k"); v != 9 {
		t.Errorf("cache after retry = %d", v)
	}
}

// TestWaiterHonorsContext: a waiter whose own context dies while the
// leader computes gives up with the context error.
func TestWaiterHonorsContext(t *testing.T) {
	c := New[string, int](1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), "k", func() (int, int64, error) {
		close(started)
		<-release
		return 1, 1, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (int, int64, error) { return 0, 0, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// TestNilCache: the nil cache is a valid always-miss implementation.
func TestNilCache(t *testing.T) {
	var c *LRU[string, int]
	if c != New[string, int](0) {
		t.Error("New(0) is not nil")
	}
	v, hit, err := c.Do(context.Background(), "k", func() (int, int64, error) { return 5, 1, nil })
	if v != 5 || hit || err != nil {
		t.Errorf("nil Do = %d,%v,%v", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), "k", func() (int, int64, error) { return 6, 1, nil })
	if v != 6 || hit || err != nil {
		t.Errorf("second nil Do = %d,%v,%v", v, hit, err)
	}
	if c.Stats() != (Stats{}) {
		t.Error("nil cache retained state")
	}
	if c.Contains("k") {
		t.Error("nil Contains reported true")
	}
}

// TestContainsIsStatsAndRecencyNeutral pins the peek contract: lane
// classification probes the cache on every request and must neither
// skew the hit/miss counters nor protect entries from eviction.
func TestContainsIsStatsAndRecencyNeutral(t *testing.T) {
	c := New[string, int](2)
	put(t, c, "a", 1, 1)
	put(t, c, "b", 2, 1)

	before := c.Stats()
	if !c.Contains("a") || !c.Contains("b") || c.Contains("missing") {
		t.Fatal("Contains residency answers wrong")
	}
	if st := c.Stats(); st != before {
		t.Fatalf("Contains moved counters: %+v, was %+v", st, before)
	}

	// Peeking "a" many times must not refresh it: "a" is still the LRU
	// entry and the next insert evicts it, not "b".
	for i := 0; i < 10; i++ {
		c.Contains("a")
	}
	put(t, c, "c", 3, 1)
	if c.Contains("a") {
		t.Error("Contains bumped recency: LRU entry survived eviction")
	}
	if !c.Contains("b") || !c.Contains("c") {
		t.Error("wrong entry evicted")
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines for
// the race detector.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int, int](1 << 10)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := (i + j) % 37
				v, _, err := c.Do(context.Background(), k, func() (int, int64, error) {
					return k * 2, 16, nil
				})
				if err != nil || v != k*2 {
					t.Errorf("Do(%d) = %d,%v", k, v, err)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestLeaderPanicDoesNotWedgeKey: a panicking compute must clean up
// its flight — waiters retry, later callers compute normally.
func TestLeaderPanicDoesNotWedgeKey(t *testing.T) {
	c := New[string, int](1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }() // the panic propagates to the leader's caller
		c.Do(context.Background(), "k", func() (int, int64, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func() (int, int64, error) { return 3, 1, nil })
		if err == nil && v != 3 {
			t.Errorf("waiter got %d, want 3", v)
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter err = %v, want nil (retried after leader panic)", err)
	}
	// The key works normally afterwards.
	v, _, err := c.Do(context.Background(), "k", func() (int, int64, error) { return 4, 1, nil })
	if err != nil || v != 3 { // waiter's retry cached 3
		t.Errorf("post-panic Do = %d,%v", v, err)
	}
}

// TestEachCallCountsOnce: every Do call counts under exactly one of
// Hits, Misses and Coalesced. A waiter whose leader fails and who then
// computes itself is one miss, not a coalesce and a miss.
func TestEachCallCountsOnce(t *testing.T) {
	c := New[string, int](1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() (int, int64, error) {
			close(started)
			<-release
			return 0, 0, errors.New("leader failed")
		})
	}()
	<-started
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		c.Do(context.Background(), "k", func() (int, int64, error) { return 2, 1, nil })
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the flight
	close(release)
	<-leaderDone
	<-waiterDone
	cached(t, c, "k")
	if s := c.Stats(); s.Misses != 2 || s.Coalesced != 0 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses, 0 coalesced, 1 hit", s)
	}
}
