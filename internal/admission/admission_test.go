package admission

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced resilient.Clock: admission and
// release timestamps come from it, so tests control every observed
// execution latency exactly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.advance(d)
	return ctx.Err()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// waitQueued spins until the limiter reports depth waiters queued in
// lane (tests enqueue from goroutines and need the ordering pinned).
func waitQueued(t *testing.T, l *Limiter, lane Lane, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := l.Stats()
		q := st.Fast.Queued
		if lane == Cold {
			q = st.Cold.Queued
		}
		if q == depth {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("lane %s never reached queue depth %d", lane, depth)
}

// seedCost gives key (and the lane aggregate) a full-confidence window
// of identical samples, so p90 == baseline == cost.
func seedCost(l *Limiter, lane Lane, key string, cost time.Duration) {
	for i := 0; i < minSamples; i++ {
		l.tracker.Observe(key, cost)
		l.tracker.Observe(laneKey(lane), cost)
	}
}

func TestAdmitsUpToCapThenShedsOnQueueTimeout(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 3, Clock: newFakeClock()})

	// Fast work may fill every slot; cold work leaves one free.
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := l.Acquire(context.Background(), Fast, "cached")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := l.Acquire(ctx, Fast, "cached")
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("4th acquire: want ShedError, got %v", err)
	}
	if shed.Reason != ReasonQueueTimeout {
		t.Fatalf("reason = %q, want %q", shed.Reason, ReasonQueueTimeout)
	}
	if s := shed.RetryAfterSeconds(); s < 1 {
		t.Fatalf("RetryAfterSeconds = %d, want >= 1", s)
	}

	st := l.Stats()
	if st.Fast.InFlight != 3 || st.Fast.Queued != 0 {
		t.Fatalf("stats after shed: in_flight=%d queued=%d, want 3/0", st.Fast.InFlight, st.Fast.Queued)
	}
	if st.Fast.Sheds != 1 || st.Fast.QueueTimeouts != 1 {
		t.Fatalf("sheds=%d queue_timeouts=%d, want 1/1", st.Fast.Sheds, st.Fast.QueueTimeouts)
	}

	for _, tk := range tickets {
		tk.Release(OK)
	}
	if st := l.Stats(); st.Fast.InFlight != 0 {
		t.Fatalf("in_flight after release = %d, want 0", st.Fast.InFlight)
	}
}

func TestReleaseAdmitsQueuedWaiterFIFO(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, Clock: newFakeClock()})
	holder, err := l.Acquire(context.Background(), Cold, "nc")
	if err != nil {
		t.Fatalf("holder: %v", err)
	}

	order := make(chan int, 2)
	var wg sync.WaitGroup
	enqueue := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := l.Acquire(context.Background(), Cold, "nc")
			if err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			order <- id
			tk.Release(OK)
		}()
	}
	enqueue(1)
	waitQueued(t, l, Cold, 1)
	enqueue(2)
	waitQueued(t, l, Cold, 2)

	holder.Release(OK)
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("admission order = %d,%d; want FIFO 1,2", first, second)
	}
}

func TestFastLanePoppedBeforeCold(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, Clock: newFakeClock()})
	holder, err := l.Acquire(context.Background(), Cold, "nc")
	if err != nil {
		t.Fatalf("holder: %v", err)
	}

	order := make(chan Lane, 2)
	var wg sync.WaitGroup
	enqueue := func(lane Lane) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := l.Acquire(context.Background(), lane, "k")
			if err != nil {
				t.Errorf("%s waiter: %v", lane, err)
				return
			}
			order <- lane
			tk.Release(OK)
		}()
	}
	// Cold queues first; the later fast arrival must still win.
	enqueue(Cold)
	waitQueued(t, l, Cold, 1)
	enqueue(Fast)
	waitQueued(t, l, Fast, 1)

	holder.Release(OK)
	wg.Wait()
	if first := <-order; first != Fast {
		t.Fatalf("first admitted lane = %s, want fast", first)
	}
}

func TestFastReserveKeepsSlotFreeOfColdWork(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 4, Clock: newFakeClock()})

	for i := 0; i < 3; i++ {
		if _, err := l.Acquire(context.Background(), Cold, "nc"); err != nil {
			t.Fatalf("cold acquire %d: %v", i, err)
		}
	}
	// The 4th slot is reserved: cold work queues, fast work sails in.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx, Cold, "nc"); err == nil {
		t.Fatal("4th cold acquire took the reserved slot")
	}
	tk, err := l.Acquire(context.Background(), Fast, "cached")
	if err != nil {
		t.Fatalf("fast acquire into reserved slot: %v", err)
	}
	tk.Release(OK)
}

func TestExpiredBudgetRejectedOnArrival(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{MaxConcurrent: 2, Clock: clk})

	ctx, cancel := context.WithDeadline(context.Background(), clk.Now())
	defer cancel()
	_, err := l.Acquire(ctx, Cold, "nc")
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if st := l.Stats(); st.Expired != 1 || st.Cold.Admitted != 0 {
		t.Fatalf("expired=%d admitted=%d, want 1/0", st.Expired, st.Cold.Admitted)
	}
}

func TestDeadlineFastFailUsesObservedP90(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{MaxConcurrent: 2, Clock: clk})
	seedCost(l, Cold, "nc", 100*time.Millisecond)

	// 20ms of budget cannot cover an observed 100ms p90: shed.
	ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(20*time.Millisecond))
	defer cancel()
	_, err := l.Acquire(ctx, Cold, "nc")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonDeadline {
		t.Fatalf("err = %v, want deadline ShedError", err)
	}
	if st := l.Stats(); st.DeadlineRejects != 1 {
		t.Fatalf("deadline_rejects = %d, want 1", st.DeadlineRejects)
	}

	// An ample budget is admitted.
	ctx2, cancel2 := context.WithDeadline(context.Background(), clk.Now().Add(10*time.Second))
	defer cancel2()
	tk, err := l.Acquire(ctx2, Cold, "nc")
	if err != nil {
		t.Fatalf("ample-budget acquire: %v", err)
	}
	tk.Release(OK)

	// A key with no samples stays permissive even on a tight budget.
	ctx3, cancel3 := context.WithDeadline(context.Background(), clk.Now().Add(20*time.Millisecond))
	defer cancel3()
	tk, err = l.Acquire(ctx3, Fast, "unknown")
	if err != nil {
		t.Fatalf("unseeded-key acquire: %v", err)
	}
	tk.Release(OK)
}

func TestRetryAfterComputedFromQueueDepth(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{MaxConcurrent: 1, Clock: clk})
	seedCost(l, Cold, "nc", 800*time.Millisecond)

	holder, err := l.Acquire(context.Background(), Cold, "nc")
	if err != nil {
		t.Fatalf("holder: %v", err)
	}

	// Shallow state: a deadline reject sees 1 in flight + itself at
	// 0.8s/slot => 1.6s, a 2s hint.
	ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(50*time.Millisecond))
	_, err = l.Acquire(ctx, Cold, "nc")
	cancel()
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonDeadline {
		t.Fatalf("err = %v, want deadline ShedError", err)
	}
	if got := shed.RetryAfterSeconds(); got != 2 {
		t.Fatalf("shallow Retry-After = %ds, want 2", got)
	}

	// Fill the queue; the queue-full hint must now cover the drain of
	// everything ahead: 1 in flight + 32 queued + itself at 0.8s/slot
	// => 27.2s, a 28s hint.
	waitCtx, cancelWaiters := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Acquire(waitCtx, Cold, "nc") //nolint:errcheck // canceled below
		}()
		waitQueued(t, l, Cold, i+1)
	}
	_, err = l.Acquire(context.Background(), Cold, "nc")
	if !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
		t.Fatalf("err = %v, want queue-full ShedError", err)
	}
	if got := shed.RetryAfterSeconds(); got != 28 {
		t.Fatalf("deep Retry-After = %ds, want 28", got)
	}

	cancelWaiters()
	wg.Wait()
	holder.Release(OK)
}

func TestAIMDDecreaseOnCongestionAndTimeout(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{MaxConcurrent: 8, Clock: clk})

	run := func(exec time.Duration, outcome Outcome) {
		tk, err := l.Acquire(context.Background(), Cold, "nc")
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		clk.advance(exec)
		tk.Release(outcome)
	}

	// Establish a 10ms baseline; good completions keep the limit at cap.
	for i := 0; i < minSamples; i++ {
		run(10*time.Millisecond, OK)
	}
	if st := l.Stats(); st.Limit != 8 {
		t.Fatalf("limit after warm-up = %v, want 8", st.Limit)
	}

	// 100ms > 4 x 10ms baseline: multiplicative decrease.
	run(100*time.Millisecond, OK)
	if st := l.Stats(); st.Limit != 6 || st.Decreases != 1 {
		t.Fatalf("limit after congestion = %v (decreases %d), want 6 (1)", st.Limit, st.Decreases)
	}

	// A second congested completion 100ms later, inside the 250ms
	// cooldown, must not collapse the limit further.
	run(100*time.Millisecond, OK)
	if st := l.Stats(); st.Limit != 6 || st.Decreases != 1 {
		t.Fatalf("cooldown ignored: limit = %v, decreases = %d", st.Limit, st.Decreases)
	}

	// Past the cooldown, a deadline-timeout execution decreases again.
	clk.advance(2 * time.Hour)
	run(10*time.Millisecond, Timeout)
	if st := l.Stats(); st.Limit != 4.5 || st.Decreases != 2 {
		t.Fatalf("limit after timeout = %v (decreases %d), want 4.5 (2)", st.Limit, st.Decreases)
	}

	// Healthy completions grow the limit back additively (+1/limit).
	before := l.Stats().Limit
	clk.advance(2 * time.Hour)
	for i := 0; i < 20; i++ {
		run(10*time.Millisecond, OK)
	}
	after := l.Stats().Limit
	if after <= before {
		t.Fatalf("limit did not recover: %v -> %v", before, after)
	}
	if after > 8 {
		t.Fatalf("limit exceeded hard cap: %v", after)
	}

	// Errored completions carry no signal.
	mid := l.Stats().Limit
	run(time.Second, Errored)
	if got := l.Stats().Limit; got != mid {
		t.Fatalf("Errored outcome moved the limit: %v -> %v", mid, got)
	}
}

func TestShrunkLimitGatesAdmission(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{MaxConcurrent: 4, Clock: clk})
	// Baseline then five congestion events spaced past the cooldown:
	// limit 4 -> 3 -> 2.25 -> 1.69 -> 1.27 -> 1 (floored at minLimit).
	run := func(exec time.Duration) {
		tk, err := l.Acquire(context.Background(), Cold, "nc")
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		clk.advance(exec)
		tk.Release(OK)
	}
	for i := 0; i < minSamples; i++ {
		run(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		run(200 * time.Millisecond)
		clk.advance(time.Second)
	}
	if st := l.Stats(); st.Limit != 1 {
		t.Fatalf("limit = %v, want 1", st.Limit)
	}

	// The hard cap is 4 but only 1 slot is admissible now.
	tk, err := l.Acquire(context.Background(), Cold, "nc")
	if err != nil {
		t.Fatalf("first acquire under shrunk limit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx, Cold, "nc"); err == nil {
		t.Fatal("second acquire admitted past the shrunk limit")
	}
	tk.Release(Errored)
}

func TestCanceledWaiterLeavesSlotUsable(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, Clock: newFakeClock()})
	holder, err := l.Acquire(context.Background(), Cold, "nc")
	if err != nil {
		t.Fatalf("holder: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx, Cold, "nc")
		errc <- err
	}()
	waitQueued(t, l, Cold, 1)
	cancel()
	var shed *ShedError
	if err := <-errc; !errors.As(err, &shed) || shed.Reason != ReasonQueueTimeout {
		t.Fatalf("canceled waiter err = %v, want queue-timeout ShedError", err)
	}

	holder.Release(OK)
	tk, err := l.Acquire(context.Background(), Cold, "nc")
	if err != nil {
		t.Fatalf("acquire after canceled waiter: %v", err)
	}
	tk.Release(OK)
}

func TestReleaseIsIdempotent(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 2, Clock: newFakeClock()})
	tk, err := l.Acquire(context.Background(), Fast, "cached")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	tk.Release(OK)
	tk.Release(OK)
	tk.Release(Errored)
	var nilTicket *Ticket
	nilTicket.Release(OK) // must not panic
	if st := l.Stats(); st.Fast.InFlight != 0 {
		t.Fatalf("in_flight = %d after double release, want 0", st.Fast.InFlight)
	}
}

// TestConcurrentStress exercises the limiter under the race detector:
// many goroutines across both lanes acquiring, releasing, and
// abandoning waits. Afterward nothing may remain in flight or queued.
func TestConcurrentStress(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 4})
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				lane := Cold
				if rng.Intn(2) == 0 {
					lane = Fast
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(5)+1)*time.Millisecond)
				tk, err := l.Acquire(ctx, lane, "stress")
				if err == nil {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					tk.Release(Outcome(rng.Intn(3)))
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Fast.InFlight != 0 || st.Cold.InFlight != 0 {
		t.Fatalf("in flight after drain: fast=%d cold=%d", st.Fast.InFlight, st.Cold.InFlight)
	}
	if st.Fast.Queued != 0 || st.Cold.Queued != 0 {
		t.Fatalf("queued after drain: fast=%d cold=%d", st.Fast.Queued, st.Cold.Queued)
	}
	if st.Limit < 1 || st.Limit > 4 {
		t.Fatalf("limit out of range: %v", st.Limit)
	}
}
