package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

const (
	// maxAttempts bounds a Do's attempts, first try included.
	maxAttempts = 3
	// baseDelay caps the first backoff pause.
	baseDelay = 50 * time.Millisecond
)

// Retry executes an operation with exponential backoff and full
// jitter. The zero value is usable.
//
// Backoff follows the "full jitter" scheme: before attempt k+1 the
// executor sleeps a uniformly random duration in [0, cap_k], where
// cap_0 = baseDelay and cap_{k+1} = 2*cap_k; with maxAttempts 3 the
// pauses are drawn from [0, 50ms] and then [0, 100ms]. Jitter
// decorrelates the retry storms of many clients that failed at
// the same instant, which is exactly the fleet's peer-loss scenario.
//
// Retries are budget-aware: no attempt ever starts after the request
// context's deadline, and a sleep that would overshoot the deadline is
// not taken — Do returns the last attempt's error immediately instead
// of burning the caller's remaining budget on a wait that cannot be
// followed by work.
type Retry struct {
	// Clock defaults to SystemClock. Rand returns a uniform int64 in
	// [0, n) and defaults to math/rand.Int63n; tests substitute both
	// to pin exact schedules.
	Clock Clock
	Rand  func(n int64) int64
}

// Permanent marks err as non-retryable: Do returns it after the
// current attempt without further tries. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// WithRetryAfter attaches a server-provided backoff hint (an HTTP
// Retry-After, typically) to err: the sleep before the next attempt is
// raised to at least after. A nil err stays nil.
func WithRetryAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryAfterError{err: err, after: after}
}

type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// RetryAfterHint extracts the most recent WithRetryAfter hint from
// err's chain.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// Do runs op until it succeeds, returns a Permanent or context error,
// exhausts maxAttempts, or the next attempt would start after ctx's
// deadline. attempt counts from 0. The returned error wraps the last
// attempt's error, so errors.Is/As see through the exhaustion wrapper.
func (r Retry) Do(ctx context.Context, op func(ctx context.Context, attempt int) error) error {
	clock := r.Clock
	if clock == nil {
		clock = SystemClock
	}
	randn := r.Rand
	if randn == nil {
		randn = rand.Int63n
	}

	var lastErr error
	backoffCap := baseDelay
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("resilient: %v after %d attempts: %w", err, attempt, lastErr)
			}
			return err
		}
		err := op(ctx, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if IsPermanent(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if attempt == maxAttempts-1 {
			break
		}
		// Full jitter within the current cap, raised to any server hint.
		delay := time.Duration(randn(int64(backoffCap) + 1))
		if hint, ok := RetryAfterHint(err); ok && hint > delay {
			delay = hint
		}
		// Budget-aware: an attempt scheduled at or past the deadline
		// could never finish — stop now with the real failure.
		if dl, ok := ctx.Deadline(); ok && !clock.Now().Add(delay).Before(dl) {
			return fmt.Errorf("resilient: deadline leaves no budget for attempt %d: %w", attempt+2, lastErr)
		}
		if serr := clock.Sleep(ctx, delay); serr != nil {
			return fmt.Errorf("resilient: %v while backing off: %w", serr, lastErr)
		}
		backoffCap *= 2
	}
	return fmt.Errorf("resilient: %d attempts exhausted: %w", maxAttempts, lastErr)
}
