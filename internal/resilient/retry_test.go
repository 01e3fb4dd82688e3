package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock advances instantly: Sleep records the requested duration
// and moves Now forward, so a multi-second backoff schedule is pinned
// in microseconds of test time.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

// The base is the real present: deadline tests hand ctx a wall-clock
// deadline slightly in the real future, which the instantly-advancing
// fake clock then crosses long before the real one would.
func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Now()}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// maxRand drives jitter to the top of its range: Rand(n) = n-1, so the
// sleep before attempt k+1 is exactly cap_k and the schedule is pinned.
func maxRand(n int64) int64 { return n - 1 }

var errFlaky = errors.New("flaky")

// TestRetryBackoffSchedule pins the deterministic fake-clock schedule:
// with full jitter forced to its maximum, the sleeps are exactly the
// caps 50ms and 100ms.
func TestRetryBackoffSchedule(t *testing.T) {
	clock := newFakeClock()
	r := Retry{Clock: clock, Rand: maxRand}
	calls := 0
	err := r.Do(context.Background(), func(ctx context.Context, attempt int) error {
		if attempt != calls {
			t.Errorf("attempt %d delivered as %d", calls, attempt)
		}
		calls++
		return errFlaky
	})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("exhaustion error %v does not wrap the last attempt error", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	got := clock.sleeps()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRetryJitterBounds is the jitter property: with the default-style
// rand, every sleep before attempt k+1 lies in [0, cap_k].
func TestRetryJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	caps := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	for trial := 0; trial < 200; trial++ {
		clock := newFakeClock()
		r := Retry{Clock: clock, Rand: rng.Int63n}
		r.Do(context.Background(), func(context.Context, int) error { return errFlaky })
		sleeps := clock.sleeps()
		if len(sleeps) != len(caps) {
			t.Fatalf("trial %d: %d sleeps, want %d", trial, len(sleeps), len(caps))
		}
		for i, d := range sleeps {
			if d < 0 || d > caps[i] {
				t.Fatalf("trial %d: sleep %d = %v outside [0, %v]", trial, i, d, caps[i])
			}
		}
	}
}

// TestRetryDeadlineBounded pins the budget rule: no attempt starts at
// or after the context deadline, and the would-overshoot sleep is not
// taken. With pauses of 50ms and then 100ms against a 140ms budget
// exactly two attempts fit (t = 0, 50ms); the third would start at
// 150ms.
func TestRetryDeadlineBounded(t *testing.T) {
	clock := newFakeClock()
	deadline := clock.Now().Add(140 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	r := Retry{Clock: clock, Rand: maxRand}
	calls := 0
	err := r.Do(ctx, func(ctx context.Context, attempt int) error {
		if !clock.Now().Before(deadline) {
			t.Errorf("attempt %d started at %v, at/after deadline %v", attempt, clock.Now(), deadline)
		}
		calls++
		return errFlaky
	})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("error %v does not wrap the attempt error", err)
	}
	if calls != 2 {
		t.Errorf("op ran %d times, want 2 within the 140ms budget", calls)
	}
	if got := clock.sleeps(); len(got) != 1 || got[0] != 50*time.Millisecond {
		t.Errorf("slept %v, want only the 50ms pause", got)
	}
}

// TestRetryPermanent: a Permanent error stops after the failing
// attempt and is returned unwrapped-ly reachable via errors.Is.
func TestRetryPermanent(t *testing.T) {
	clock := newFakeClock()
	r := Retry{Clock: clock, Rand: maxRand}
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error {
		calls++
		return Permanent(errFlaky)
	})
	if calls != 1 {
		t.Errorf("op ran %d times, want 1", calls)
	}
	if !errors.Is(err, errFlaky) || !IsPermanent(err) {
		t.Errorf("error %v lost its identity or permanence", err)
	}
	if len(clock.sleeps()) != 0 {
		t.Errorf("slept %v after a permanent error", clock.sleeps())
	}
}

// TestRetrySucceedsMidway: success stops retrying and returns nil.
func TestRetrySucceedsMidway(t *testing.T) {
	r := Retry{Clock: newFakeClock(), Rand: maxRand}
	calls := 0
	err := r.Do(context.Background(), func(ctx context.Context, attempt int) error {
		calls++
		if attempt < 2 {
			return errFlaky
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d, want nil after 3", err, calls)
	}
}

// TestRetryAfterHintRaisesSleep: a server Retry-After hint overrides a
// smaller jittered backoff.
func TestRetryAfterHintRaisesSleep(t *testing.T) {
	clock := newFakeClock()
	r := Retry{Clock: clock, Rand: maxRand}
	err := r.Do(context.Background(), func(context.Context, int) error {
		return WithRetryAfter(errFlaky, 300*time.Millisecond)
	})
	if !errors.Is(err, errFlaky) {
		t.Fatal(err)
	}
	sleeps := clock.sleeps()
	if len(sleeps) != 2 || sleeps[0] != 300*time.Millisecond || sleeps[1] != 300*time.Millisecond {
		t.Errorf("slept %v, want exactly the 300ms hint before each retry", sleeps)
	}
}

// TestRetryContextErrorsNotRetried: an attempt failing with the
// context's own error returns immediately.
func TestRetryContextErrorsNotRetried(t *testing.T) {
	r := Retry{Clock: newFakeClock(), Rand: maxRand}
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error {
		calls++
		return fmt.Errorf("attempt: %w", context.DeadlineExceeded)
	})
	if calls != 1 || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("calls=%d err=%v, want 1 attempt returning the deadline error", calls, err)
	}
}
