// Package resilient is the daemon fleet's failure-handling substrate:
// a deadline-bounded retry executor with exponential backoff and full
// jitter, a per-peer circuit breaker, and a fault-injection hook
// for chaos testing. Every component takes an injectable Clock (and,
// where it randomizes, an injectable rand source) so tests pin exact
// schedules without sleeping.
package resilient

import (
	"context"
	"time"
)

// Clock abstracts wall time and interruptible sleeping so retry
// schedules and breaker cooldowns are deterministic under test.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, whichever comes first,
	// returning ctx.Err() when the context won.
	Sleep(ctx context.Context, d time.Duration) error
}

// SystemClock is the process clock: time.Now and a timer-backed,
// context-interruptible sleep.
var SystemClock Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
