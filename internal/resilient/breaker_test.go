package resilient

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerHealthyPeerPassesEverything is the property test pinned
// by the issue: against a peer that always succeeds, the breaker
// passes 100% of traffic and never leaves Closed — whatever the
// request volume or timing.
func TestBreakerHealthyPeerPassesEverything(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(clock)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
		b.Record(true)
		// Arbitrary pacing must not matter.
		clock.advance(time.Duration(rng.Intn(500)) * time.Millisecond)
	}
	if st := b.State(); st != Closed {
		t.Errorf("state = %v after an all-success stream", st)
	}
	if s := b.Stats(); s.Opens != 0 || s.ConsecutiveFailures != 0 {
		t.Errorf("stats = %+v after an all-success stream", s)
	}
}

// TestBreakerSubThresholdFailuresStayClosed: failures interleaved with
// successes never accumulate to the consecutive threshold.
func TestBreakerSubThresholdFailuresStayClosed(t *testing.T) {
	b := NewBreaker(newFakeClock())
	for i := 0; i < 1000; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
		// Four failures then a success: always below threshold 5.
		b.Record(i%5 == 4)
	}
	if st := b.State(); st != Closed {
		t.Errorf("state = %v, want closed", st)
	}
}

// TestBreakerLifecycle walks the full state machine: consecutive
// failures open it, the cooldown admits exactly one half-open probe,
// and the probe's outcome picks Closed or re-Open.
func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(clock)

	for i := 0; i < 5; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(false)
	}
	if st := b.State(); st != Open {
		t.Fatalf("state after 5 failures = %v, want open", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker allowed traffic (err=%v)", err)
	}

	// Cooldown not yet over.
	clock.advance(4 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("breaker reopened before the cooldown elapsed")
	}

	// Cooldown over: exactly one probe.
	clock.advance(2 * time.Second)
	if st := b.State(); st != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker rejected the probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe: straight back to open, cooldown restarted.
	b.Record(false)
	if st := b.State(); st != Open {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	clock.advance(6 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(true)
	if st := b.State(); st != Closed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if s := b.Stats(); s.Opens != 2 {
		t.Errorf("opens = %d, want 2", s.Opens)
	}

	// Fully recovered: traffic flows again.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(true)
}

// TestBreakerNil: the nil breaker is the no-op pass-through.
func TestBreakerNil(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if st := b.State(); st != Closed {
		t.Errorf("nil breaker state = %v", st)
	}
	if s := b.Stats(); s.State != "closed" {
		t.Errorf("nil breaker stats = %+v", s)
	}
}

// TestBreakerConcurrentHalfOpenProbes: when the cooldown elapses and
// many goroutines race Allow simultaneously, exactly one is admitted
// as the half-open probe; every loser fails fast with ErrOpen instead
// of queueing behind it. The probe's success then closes the breaker
// for everyone.
func TestBreakerConcurrentHalfOpenProbes(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(clock)
	for i := 0; i < 5; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(false)
	}
	if st := b.State(); st != Open {
		t.Fatalf("state = %v after threshold failures, want open", st)
	}
	clock.advance(5 * time.Second) // cooldown over: next Allow is the probe

	const racers = 32
	var wg sync.WaitGroup
	var admitted, rejected atomic.Int32
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch err := b.Allow(); {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrOpen):
				rejected.Add(1)
			default:
				t.Errorf("unexpected Allow error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("admitted %d probes, want exactly 1", got)
	}
	if got := rejected.Load(); got != racers-1 {
		t.Fatalf("rejected %d, want %d (losers fail fast)", got, racers-1)
	}

	// While the probe is still in flight the slot stays taken.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second probe admitted while first in flight: %v", err)
	}
	b.Record(true) // the winner reports success
	if st := b.State(); st != Closed {
		t.Fatalf("state = %v after probe success, want closed", st)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected traffic: %v", err)
	}
	b.Record(true)
}

// TestBreakerFailedProbeReopensUnderRace: a failed probe re-opens the
// breaker and restarts the cooldown — concurrent callers racing the
// Record keep getting ErrOpen, and the next probe is again singular.
func TestBreakerFailedProbeReopensUnderRace(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(clock)
	for i := 0; i < 5; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(false)
	}
	clock.advance(5 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Record(false) // probe fails concurrently with the Allow storm
	}()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Allow(); err == nil {
				// Raced ahead of the failing Record while half-open: that
				// caller holds the probe slot and must report an outcome.
				b.Record(false)
			}
		}()
	}
	wg.Wait()
	if st := b.State(); st != Open {
		t.Fatalf("state = %v after failed probe, want open", st)
	}
	// Cooldown restarts from the failure: still rejecting now...
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker admitted during cooldown: %v", err)
	}
	// ...and exactly one probe again once it elapses.
	clock.advance(5 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	b.Record(true)
	if st := b.State(); st != Closed {
		t.Fatalf("state = %v, want closed", st)
	}
}
