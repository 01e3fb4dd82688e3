package resilient

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Breaker.Allow while the breaker rejects
// traffic: the peer failed enough recently that probing it again now
// would only burn the request's budget.
var ErrOpen = errors.New("resilient: circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed passes all traffic (the healthy steady state).
	Closed BreakerState = iota
	// Open rejects all traffic until the cooldown elapses.
	Open
	// HalfOpen passes a single probe; its outcome decides Closed vs Open.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

const (
	// failureThreshold is the consecutive-failure count that opens a
	// breaker.
	failureThreshold = 5
	// cooldown is how long an open breaker rejects before allowing a
	// half-open probe.
	cooldown = 5 * time.Second
)

// BreakerStats is a point-in-time snapshot for observability surfaces
// (the daemon's /statsz).
type BreakerStats struct {
	State               string `json:"state"`
	Opens               uint64 `json:"opens"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
}

// Breaker is a per-peer circuit breaker: closed → open after
// failureThreshold consecutive failures → half-open probe after the
// cooldown → closed on probe success, reopen on probe failure. A nil
// *Breaker passes all traffic and records nothing, so callers without
// a breaker need not branch.
//
// Usage: if Allow returns nil the caller must Record the outcome of
// exactly one operation; in the half-open state that pairing is what
// limits the probe to a single in-flight request.
type Breaker struct {
	clock Clock

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probing     bool
	opens       uint64
}

// NewBreaker returns a Breaker in the Closed state; a nil clock means
// SystemClock.
func NewBreaker(clock Clock) *Breaker {
	if clock == nil {
		clock = SystemClock
	}
	return &Breaker{clock: clock}
}

// Allow reports whether a request may proceed. A nil return obliges
// the caller to call Record exactly once with the outcome.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.clock.Now().Sub(b.openedAt) < cooldown {
			return ErrOpen
		}
		// Cooldown over: move to half-open and admit this caller as
		// the probe.
		b.state = HalfOpen
		b.probing = true
		return nil
	case HalfOpen:
		if b.probing {
			return ErrOpen // one probe at a time
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// Record reports one allowed operation's outcome and drives the state
// transitions.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	switch {
	case b.state == HalfOpen && success:
		b.state = Closed
		b.consecFails = 0
		b.probing = false
	case b.state == HalfOpen:
		b.toOpen()
	case b.state == Open:
		// A straggler from before the trip; its outcome is stale.
	case success:
		b.consecFails = 0
	default:
		b.consecFails++
		if b.consecFails >= failureThreshold {
			b.toOpen()
		}
	}
}

// toOpen runs under b.mu.
func (b *Breaker) toOpen() {
	b.state = Open
	b.openedAt = b.clock.Now()
	b.opens++
	b.probing = false
}

// State returns the breaker's current position, surfacing an elapsed
// cooldown as HalfOpen without consuming the probe slot.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.clock.Now().Sub(b.openedAt) >= cooldown {
		return HalfOpen
	}
	return b.state
}

// Stats snapshots the breaker for observability. A nil breaker reports
// a closed state with zero counters.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: Closed.String()}
	}
	st := b.State()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{State: st.String(), Opens: b.opens, ConsecutiveFailures: b.consecFails}
}
