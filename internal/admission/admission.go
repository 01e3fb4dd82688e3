// Package admission is the daemon's overload-control front door. It
// replaces a fixed counting semaphore with three cooperating pieces:
//
//   - An adaptive concurrency limiter: AIMD on observed per-key
//     *execution* latency (admission to release, queue wait excluded).
//     Good completions grow the limit additively toward the hard cap;
//     a completion whose execution latency blows past tolerance (4) x
//     the key's recent best — or one that dies on its deadline mid-run —
//     shrinks it by decreaseFactor (0.75), at most once per
//     decreaseCooldown (250ms), never below minLimit (1). Measuring
//     execution (not total) latency matters: queue wait under overload
//     is the queue doing its job, while execution inflation means the
//     workers themselves are contending and concurrency should drop.
//
//   - A deadline-aware queue of at most 8 x MaxConcurrent waiters per
//     lane (at least 32): a request whose remaining budget cannot
//     cover the observed p90 cost of its work plus the predicted drain
//     time of the queue ahead of it is failed immediately with a
//     Retry-After computed from queue depth (defaultCost, 100ms, per
//     slot before any samples exist; capped at retryAfterCap, 30s),
//     instead of burning a slot (or queue residence) on a response
//     nobody will wait for.
//
//   - Two priority lanes: Fast (cache-hit / mmap-served work) is
//     always popped before Cold (full scoring), and from two slots up
//     one slot is kept free of cold work, so cheap requests stay cheap
//     while the cold lane sheds.
package admission

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilient"
)

// Lane is a priority class.
type Lane int

const (
	// Fast is the cheap lane: score-cache hits and mmap-served bodies
	// whose cost is serialization, not scoring.
	Fast Lane = iota
	// Cold is full scoring work.
	Cold

	numLanes = 2
)

func (l Lane) String() string {
	if l == Fast {
		return "fast"
	}
	return "cold"
}

// laneKey is the tracker's aggregate series for a lane, used for
// queue-drain estimates when a request's own key has no samples yet.
func laneKey(l Lane) string {
	return "lane:" + l.String()
}

// Outcome classifies a released ticket for the AIMD controller.
type Outcome int

const (
	// OK: completed successfully; its execution latency is evidence.
	OK Outcome = iota
	// Timeout: died on its deadline while executing — a congestion
	// signal even without a latency baseline.
	Timeout
	// Errored: failed for non-capacity reasons (bad input, client
	// gone, panic); carries no signal either way.
	Errored
)

// ErrExpired reports a request whose budget was already spent on
// arrival; the caller maps it to 504 without queueing or executing.
var ErrExpired = errors.New("admission: request deadline already expired")

// Shed reasons.
const (
	ReasonDeadline     = "deadline"      // budget cannot cover predicted cost
	ReasonQueueFull    = "queue-full"    // lane queue at capacity
	ReasonQueueTimeout = "queue-timeout" // expired or canceled while queued
)

// ShedError is a load-shedding rejection: the caller maps it to 503
// with the computed Retry-After.
type ShedError struct {
	Reason     string
	Lane       Lane
	RetryAfter time.Duration
	Err        error
}

func (e *ShedError) Error() string {
	msg := fmt.Sprintf("admission: %s lane shed (%s), retry after %s", e.Lane, e.Reason, e.RetryAfter)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *ShedError) Unwrap() error { return e.Err }

// RetryAfterSeconds renders the hint for an HTTP Retry-After header
// (integer seconds, minimum 1).
func (e *ShedError) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// The limiter's tuning. Each is the one value the daemon runs with.
const (
	// minLimit floors the adaptive limit.
	minLimit = 1
	// tolerance: an execution latency above tolerance x the key's
	// window-best counts as congestion.
	tolerance = 4
	// decreaseFactor is the multiplicative decrease.
	decreaseFactor = 0.75
	// decreaseCooldown spaces decreases so one burst of slow
	// completions — all observing the same congestion event — cannot
	// collapse the limit.
	decreaseCooldown = 250 * time.Millisecond
	// defaultCost seeds Retry-After computation before any latency
	// samples exist.
	defaultCost = 100 * time.Millisecond
	// retryAfterCap bounds the computed Retry-After.
	retryAfterCap = 30 * time.Second
)

// Config configures a Limiter.
type Config struct {
	// MaxConcurrent is the hard concurrency cap (the daemon's
	// -workers); the adaptive limit lives in [minLimit, MaxConcurrent].
	// Values below 1 mean 1.
	MaxConcurrent int
	// Clock defaults to resilient.SystemClock.
	Clock resilient.Clock
}

// waiter is one queued acquisition; the admitting goroutine builds the
// ticket and hands it over, so admission time (and thus execution
// latency) starts when the slot is granted, not when the wait began.
type waiter struct {
	lane  Lane
	key   string
	ready chan *Ticket // buffered(1); send happens under l.mu
}

// Limiter is the adaptive, lane-aware admission controller.
type Limiter struct {
	clock         resilient.Clock
	maxConcurrent int
	// maxQueue bounds each lane's wait queue.
	maxQueue int
	// fastReserve is how many slots cold work may never occupy, kept
	// free for fast-lane arrivals.
	fastReserve int
	tracker     *Tracker

	mu           sync.Mutex
	limit        float64 // adaptive limit in [minLimit, maxConcurrent]
	inFlight     [numLanes]int
	queues       [numLanes]*list.List // of *waiter
	lastDecrease time.Time
	decreased    bool

	admitted        [numLanes]uint64
	sheds           [numLanes]uint64
	queueTimeouts   [numLanes]uint64
	deadlineRejects uint64
	expired         uint64
	decreases       uint64
}

// NewLimiter builds a limiter whose limit starts at the hard cap, so
// an unloaded daemon behaves exactly like a static semaphore of
// MaxConcurrent slots.
func NewLimiter(cfg Config) *Limiter {
	maxConc := max(cfg.MaxConcurrent, 1)
	l := &Limiter{
		clock:         cfg.Clock,
		maxConcurrent: maxConc,
		maxQueue:      max(8*maxConc, 32),
		fastReserve:   min(1, maxConc-1),
		tracker:       NewTracker(),
		limit:         float64(maxConc),
	}
	if l.clock == nil {
		l.clock = resilient.SystemClock
	}
	for i := range l.queues {
		l.queues[i] = list.New()
	}
	return l
}

// Acquire admits the request, queues it, or rejects it. A nil error
// obliges the caller to Release the ticket exactly once. ErrExpired
// means the context deadline had already passed on arrival; a
// *ShedError carries the shed reason and the computed Retry-After.
func (l *Limiter) Acquire(ctx context.Context, lane Lane, key string) (*Ticket, error) {
	now := l.clock.Now()
	hasDeadline := false
	var remaining time.Duration
	if dl, ok := ctx.Deadline(); ok {
		hasDeadline = true
		remaining = dl.Sub(now)
		if remaining <= 0 {
			l.mu.Lock()
			l.expired++
			l.mu.Unlock()
			return nil, fmt.Errorf("%w (%s lane)", ErrExpired, lane)
		}
	}

	l.mu.Lock()
	if hasDeadline {
		if cost, ok := l.predictedCostLocked(lane, key); ok && remaining < cost {
			l.deadlineRejects++
			ra := l.retryAfterLocked(lane)
			l.mu.Unlock()
			return nil, &ShedError{Reason: ReasonDeadline, Lane: lane, RetryAfter: ra}
		}
	}
	if l.queues[lane].Len() == 0 && l.admissibleLocked(lane) {
		t := l.grantLocked(lane, key)
		l.mu.Unlock()
		return t, nil
	}
	if l.queues[lane].Len() >= l.maxQueue {
		l.sheds[lane]++
		ra := l.retryAfterLocked(lane)
		l.mu.Unlock()
		return nil, &ShedError{Reason: ReasonQueueFull, Lane: lane, RetryAfter: ra}
	}
	w := &waiter{lane: lane, key: key, ready: make(chan *Ticket, 1)}
	elem := l.queues[lane].PushBack(w)
	l.mu.Unlock()

	select {
	case t := <-w.ready:
		return t, nil
	case <-ctx.Done():
	}

	// Canceled or expired while queued. The grant may have raced the
	// cancellation; if it did, the slot is ours to hand back.
	l.mu.Lock()
	var granted *Ticket
	select {
	case granted = <-w.ready:
	default:
		l.queues[lane].Remove(elem)
	}
	l.queueTimeouts[lane]++
	l.sheds[lane]++
	ra := l.retryAfterLocked(lane)
	l.mu.Unlock()
	if granted != nil {
		granted.Release(Errored)
	}
	return nil, &ShedError{Reason: ReasonQueueTimeout, Lane: lane, RetryAfter: ra, Err: ctx.Err()}
}

// admissibleLocked reports whether a lane may take a slot right now.
func (l *Limiter) admissibleLocked(lane Lane) bool {
	eff := l.effLimitLocked()
	total := l.inFlight[Fast] + l.inFlight[Cold]
	if total >= eff {
		return false
	}
	if lane == Cold {
		coldMax := eff - l.fastReserve
		if coldMax < 1 {
			coldMax = 1
		}
		if l.inFlight[Cold] >= coldMax {
			return false
		}
	}
	return true
}

// effLimitLocked is the adaptive limit as a whole slot count.
func (l *Limiter) effLimitLocked() int {
	eff := int(math.Round(l.limit))
	if eff < minLimit {
		eff = minLimit
	}
	if eff > l.maxConcurrent {
		eff = l.maxConcurrent
	}
	return eff
}

// grantLocked takes a slot and mints its ticket.
func (l *Limiter) grantLocked(lane Lane, key string) *Ticket {
	l.inFlight[lane]++
	l.admitted[lane]++
	return &Ticket{l: l, lane: lane, key: key, start: l.clock.Now()}
}

// promoteLocked drains every admissible waiter, fast lane first. It
// runs after any release or limit change, which maintains the
// invariant that an admissible waiter never sits queued.
func (l *Limiter) promoteLocked() {
	for {
		var lane Lane
		switch {
		case l.queues[Fast].Len() > 0 && l.admissibleLocked(Fast):
			lane = Fast
		case l.queues[Cold].Len() > 0 && l.admissibleLocked(Cold):
			lane = Cold
		default:
			return
		}
		elem := l.queues[lane].Front()
		l.queues[lane].Remove(elem)
		w := elem.Value.(*waiter)
		w.ready <- l.grantLocked(w.lane, w.key)
	}
}

// predictedCostLocked estimates what serving this request will cost:
// its own p90 execution cost plus the drain time of the work ahead of
// it. ok is false when there is no evidence yet — admission stays
// permissive until the tracker warms up.
func (l *Limiter) predictedCostLocked(lane Lane, key string) (time.Duration, bool) {
	own, ok := l.tracker.P90(key)
	if !ok {
		own, ok = l.tracker.P90(laneKey(lane))
		if !ok {
			return 0, false
		}
	}
	drain, ok2 := l.tracker.P90(laneKey(lane))
	if !ok2 {
		drain = own
	}
	ahead := l.queues[lane].Len() + l.inFlight[Fast] + l.inFlight[Cold]
	if lane == Cold {
		// Fast waiters jump the cold queue, so they are ahead too.
		ahead += l.queues[Fast].Len()
	}
	eff := l.effLimitLocked()
	return own + time.Duration(float64(ahead)*float64(drain)/float64(eff)), true
}

// retryAfterLocked computes the 503 hint from queue depth: how long
// until the work ahead of a hypothetical new arrival has drained, at
// the lane-aggregate p90 per slot, or defaultCost per slot before the
// lane has samples. Clamped to [1s, retryAfterCap].
func (l *Limiter) retryAfterLocked(lane Lane) time.Duration {
	cost, ok := l.tracker.P90(laneKey(lane))
	if !ok {
		cost = defaultCost
	}
	ahead := 1 + l.queues[Fast].Len() + l.queues[Cold].Len() + l.inFlight[Fast] + l.inFlight[Cold]
	eff := l.effLimitLocked()
	d := time.Duration(float64(ahead) * float64(cost) / float64(eff))
	if d < time.Second {
		d = time.Second
	}
	if d > retryAfterCap {
		d = retryAfterCap
	}
	return d
}

// adjustLocked is the AIMD step, driven by one released ticket.
func (l *Limiter) adjustLocked(outcome Outcome, congested bool) {
	switch {
	case outcome == Timeout || (outcome == OK && congested):
		now := l.clock.Now()
		if l.decreased && now.Sub(l.lastDecrease) < decreaseCooldown {
			return
		}
		l.limit *= decreaseFactor
		if l.limit < minLimit {
			l.limit = minLimit
		}
		l.lastDecrease, l.decreased = now, true
		l.decreases++
	case outcome == OK:
		l.limit += 1 / math.Max(l.limit, 1)
		if l.limit > float64(l.maxConcurrent) {
			l.limit = float64(l.maxConcurrent)
		}
	}
}

// Ticket is one admitted request's slot. Release is idempotent and
// panic-safe to defer.
type Ticket struct {
	l        *Limiter
	lane     Lane
	key      string
	start    time.Time
	released atomic.Bool
}

// Release returns the slot, feeds the execution latency to the
// tracker (OK outcomes only — failures are not cost evidence), runs
// the AIMD step, and wakes admissible waiters.
func (t *Ticket) Release(outcome Outcome) {
	if t == nil || !t.released.CompareAndSwap(false, true) {
		return
	}
	l := t.l
	elapsed := l.clock.Now().Sub(t.start)
	congested := false
	if outcome == OK {
		l.tracker.Observe(t.key, elapsed)
		l.tracker.Observe(laneKey(t.lane), elapsed)
		if base, ok := l.tracker.Baseline(t.key); ok &&
			float64(elapsed) > tolerance*float64(base) {
			congested = true
		}
	}
	l.mu.Lock()
	l.adjustLocked(outcome, congested)
	l.inFlight[t.lane]--
	l.promoteLocked()
	l.mu.Unlock()
}

// LaneStats is one lane's /statsz row.
type LaneStats struct {
	InFlight      int    `json:"in_flight"`
	Queued        int    `json:"queued"`
	Admitted      uint64 `json:"admitted"`
	Sheds         uint64 `json:"sheds"`
	QueueTimeouts uint64 `json:"queue_timeouts"`
}

// Stats is the limiter's /statsz snapshot.
type Stats struct {
	// Adaptive is always true: the limit always runs AIMD. /statsz
	// keeps the key for its readers.
	Adaptive        bool                  `json:"adaptive"`
	Limit           float64               `json:"limit"`
	MaxConcurrent   int                   `json:"max_concurrent"`
	FastReserve     int                   `json:"fast_reserve"`
	Fast            LaneStats             `json:"fast"`
	Cold            LaneStats             `json:"cold"`
	DeadlineRejects uint64                `json:"deadline_rejects"`
	Expired         uint64                `json:"expired"`
	Decreases       uint64                `json:"limit_decreases"`
	Latency         map[string]KeyLatency `json:"latency_ms,omitempty"`
}

// Stats snapshots the limiter.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		Adaptive:        true,
		Limit:           math.Round(l.limit*100) / 100,
		MaxConcurrent:   l.maxConcurrent,
		FastReserve:     l.fastReserve,
		DeadlineRejects: l.deadlineRejects,
		Expired:         l.expired,
		Decreases:       l.decreases,
	}
	for lane := Lane(0); lane < numLanes; lane++ {
		ls := LaneStats{
			InFlight:      l.inFlight[lane],
			Queued:        l.queues[lane].Len(),
			Admitted:      l.admitted[lane],
			Sheds:         l.sheds[lane],
			QueueTimeouts: l.queueTimeouts[lane],
		}
		if lane == Fast {
			st.Fast = ls
		} else {
			st.Cold = ls
		}
	}
	l.mu.Unlock()
	st.Latency = l.tracker.Snapshot()
	return st
}
