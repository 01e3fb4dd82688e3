// Package fleet turns N backboned processes into one logical service:
// a rendezvous-hash ring routes each request body (by its sha256
// content digest, the same key the daemon's caches use) to one owning
// peer, an HTTP client forwards scoring requests there with per-attempt
// timeouts, retry/backoff and per-peer circuit breakers, and identical
// concurrent forwards are deduplicated in flight.
//
// The fleet degrades, it does not fail: when the owning peer is
// unreachable — breaker open, retries exhausted, or mid-stream
// connection loss — the forwarding peer computes the answer itself.
// Correctness is never lost on peer loss, only cache locality; the
// daemon stamps X-Backbone-Degraded on such responses so the loss is
// observable.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/resilient"
)

// ForwardedHeader marks a request as already routed by a peer. The
// receiving daemon serves it locally, whatever its own ring says —
// one hop maximum, so divergent membership views can never ping-pong
// a request around the fleet.
const ForwardedHeader = "X-Backbone-Forwarded"

// DeadlineHeader carries a request's remaining time budget across
// fleet hops as integer milliseconds. It is a *relative* budget, not
// an absolute deadline, so peers need no clock synchronization: the
// forwarder stamps what is left of its own deadline minus the
// estimated transit cost to the peer, and the receiving daemon admits
// the request against that remaining budget.
const DeadlineHeader = "X-Backbone-Deadline"

// DurationHeader is the serving daemon's self-reported execution time
// in milliseconds. The forwarder subtracts it from each attempt's
// wall-clock time to measure per-peer transit cost — the amount it
// deducts from the budget it propagates on the next attempt.
const DurationHeader = "X-Backbone-Duration-Ms"

// relayHeaders are the response headers a forwarding peer relays back
// to its client, by prefix or exact (canonical) name.
const relayPrefix = "X-Backbone-"

// maxResponseBytes bounds a relayed peer response. Forwarded responses
// are buffered in full before relaying so a peer dying mid-body is
// detected while local fallback is still possible.
const maxResponseBytes = 1 << 30

// Config assembles a Fleet.
type Config struct {
	// Self is this process's advertised address, as it appears in
	// Peers. Peers is the full fleet membership; every peer must be
	// configured with the same membership (ordering does not matter —
	// rendezvous hashing is order-free).
	Self  string
	Peers []string
	// AttemptTimeout bounds each forward attempt (default 10s); the
	// request context still caps the total.
	AttemptTimeout time.Duration
	// Clock drives the forward retries' backoff and every peer's
	// circuit breaker; nil means resilient.SystemClock.
	Clock resilient.Clock
}

// Peer is one fleet member plus its health and traffic accounting.
type Peer struct {
	Addr    string
	breaker *resilient.Breaker

	forwards  atomic.Uint64 // forward calls routed at this peer
	retries   atomic.Uint64 // extra attempts beyond each first
	failures  atomic.Uint64 // failed attempts (transport or 5xx)
	fallbacks atomic.Uint64 // forwards abandoned for local execution
	// transitNs is the EWMA of measured transit cost to this peer
	// (attempt wall-clock minus the peer's self-reported execution
	// time), in nanoseconds; 0 means unmeasured.
	transitNs atomic.Int64
}

// initialTransit seeds a peer's transit estimate before the first
// measured response: generous for a LAN so early forwards are not
// rejected for budget, corrected by the first round trip.
const initialTransit = 5 * time.Millisecond

// transit returns the current transit-cost estimate.
func (p *Peer) transit() time.Duration {
	if ns := p.transitNs.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return initialTransit
}

// observeTransit folds one measured transit cost into the EWMA
// (25% weight on the new sample).
func (p *Peer) observeTransit(d time.Duration) {
	if d < 0 {
		d = 0
	}
	for {
		old := p.transitNs.Load()
		cur := old
		if cur <= 0 {
			cur = int64(initialTransit)
		}
		next := (3*cur + int64(d)) / 4
		if next < 1 {
			next = 1
		}
		if p.transitNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// PeerStats is one peer's /statsz row.
type PeerStats struct {
	Addr      string                 `json:"addr"`
	Self      bool                   `json:"self,omitempty"`
	Forwards  uint64                 `json:"forwards"`
	Retries   uint64                 `json:"retries"`
	Failures  uint64                 `json:"failures"`
	Fallbacks uint64                 `json:"fallbacks"`
	TransitMs float64                `json:"transit_ms,omitempty"`
	Breaker   resilient.BreakerStats `json:"breaker"`
}

// Fleet is the peer-aware routing layer in front of one daemon's local
// execution path.
type Fleet struct {
	self    string
	members []string // sorted, deduped membership incl. self
	peers   map[string]*Peer
	client  *http.Client
	retry   resilient.Retry
	attempt time.Duration
	// flights deduplicates identical concurrent forwards. Nothing is
	// cached: response memoization belongs to the owning peer's
	// content-addressed caches, not the forwarding hop.
	flights cache.Flight[flightKey, *Response]
}

// flightKey identifies one forwardable computation: same body digest,
// same endpoint, same query, same body interpretation (Content-Type).
// Concurrent forwards with equal keys are served by one upstream
// request between them.
type flightKey struct {
	digest      Digest
	method      string
	path        string
	query       string
	contentType string
}

// New validates the membership and builds the fleet. Self is added to
// the membership if the peer list omitted it.
func New(cfg Config) (*Fleet, error) {
	if cfg.Self == "" {
		return nil, errors.New("fleet: self address is required")
	}
	seen := map[string]bool{}
	var members []string
	for _, addr := range append(append([]string{}, cfg.Peers...), cfg.Self) {
		addr = strings.TrimSpace(addr)
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		members = append(members, addr)
	}
	if len(members) < 2 {
		return nil, errors.New("fleet: need at least one peer besides self")
	}
	sort.Strings(members)

	f := &Fleet{
		self:    cfg.Self,
		members: members,
		peers:   make(map[string]*Peer, len(members)),
		// A 30s overall safety timeout; per-attempt budgets come from
		// AttemptTimeout.
		client:  &http.Client{Timeout: 30 * time.Second},
		retry:   resilient.Retry{Clock: cfg.Clock},
		attempt: cfg.AttemptTimeout,
	}
	if f.attempt <= 0 {
		f.attempt = 10 * time.Second
	}
	for _, addr := range members {
		p := &Peer{Addr: addr}
		if addr != f.self {
			p.breaker = resilient.NewBreaker(cfg.Clock)
		}
		f.peers[addr] = p
	}
	return f, nil
}

// Self returns this process's advertised address.
func (f *Fleet) Self() string { return f.self }

// Members returns the sorted fleet membership.
func (f *Fleet) Members() []string { return append([]string(nil), f.members...) }

// Owner returns the address owning a body digest under rendezvous
// hashing. Every peer with the same membership computes the same
// owner.
func (f *Fleet) Owner(d Digest) string { return owner(f.members, d) }

// Response is a buffered peer response ready to relay: the status, the
// relayable header subset, and the full body.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// ErrPeerUnavailable wraps forward failures that exhausted their
// retries or hit an open breaker; the caller's contract is to fall
// back to local execution.
var ErrPeerUnavailable = errors.New("fleet: peer unavailable")

// ForwardRequest sends the request to addr (the digest's owner) and
// returns its buffered response. Stateless runs are POSTs; session
// reads ride rendezvous routing as GETs (nil body), session deletes as
// DELETEs. Identical concurrent forwards coalesce into one upstream
// request (a cache.Flight). The coalescing key includes the method,
// and d is the caller's coalescing identity: for stateless runs the
// body digest, for stateful session updates a digest of the update
// payload (two distinct updates to one session must never collapse
// into one upstream call).
//
// Peer responses below 500 — including 4xx caller mistakes, which
// every peer would answer identically — are successes to relay as-is;
// transport errors, truncated bodies and 5xx statuses are retried with
// backoff (a 503's Retry-After raises the pause) until the attempt
// budget, the request deadline, or the peer's breaker says stop, and
// the error then wraps ErrPeerUnavailable.
func (f *Fleet) ForwardRequest(ctx context.Context, addr string, d Digest, method, path, rawQuery, contentType, accept string, body []byte) (*Response, error) {
	p := f.peers[addr]
	if p == nil || addr == f.self {
		return nil, fmt.Errorf("%w: %q is not a forwardable peer", ErrPeerUnavailable, addr)
	}
	p.forwards.Add(1)
	key := flightKey{digest: d, method: method, path: path, query: rawQuery, contentType: contentType}
	resp, _, err := f.flights.Do(ctx, key, func() (*Response, error) {
		var out *Response
		err := f.retry.Do(ctx, func(ctx context.Context, attempt int) error {
			if attempt > 0 {
				p.retries.Add(1)
			}
			if err := p.breaker.Allow(); err != nil {
				// An open breaker ends the whole forward, not just
				// this attempt: local fallback is cheaper than waiting
				// out a cooldown.
				return resilient.Permanent(err)
			}
			resp, err := f.attemptForward(ctx, p, method, path, rawQuery, contentType, accept, body)
			if err != nil {
				p.breaker.Record(false)
				p.failures.Add(1)
				return err
			}
			p.breaker.Record(true)
			out = resp
			return nil
		})
		if err != nil {
			// Double-wrap so callers can both match the contract error
			// and still see the cause (resilient.ErrOpen, context
			// errors) through errors.Is.
			return nil, fmt.Errorf("%w: %w", ErrPeerUnavailable, err)
		}
		return out, nil
	})
	if err != nil && !errors.Is(err, ErrPeerUnavailable) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %w", ErrPeerUnavailable, err)
	}
	return resp, err
}

// attemptForward is one bounded try against one peer.
func (f *Fleet) attemptForward(ctx context.Context, p *Peer, method, path, rawQuery, contentType, accept string, body []byte) (*Response, error) {
	addr := p.Addr
	actx, cancel := context.WithTimeout(ctx, f.attempt)
	defer cancel()

	url := "http://" + addr + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return nil, resilient.Permanent(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set(ForwardedHeader, f.self)
	// Deadline propagation: stamp the budget this attempt hands the
	// peer — what remains of the request deadline minus the estimated
	// transit cost, re-deducted per attempt so retries never promise
	// time that backoff already spent. A budget transit would eat
	// entirely ends the forward: the peer could only 504, while local
	// execution (no transit) may still make it.
	started := time.Now()
	if dl, ok := ctx.Deadline(); ok {
		remaining := dl.Sub(started) - p.transit()
		if remaining <= 0 {
			return nil, resilient.Permanent(fmt.Errorf(
				"peer %s: remaining budget %s cannot cover estimated transit %s",
				addr, dl.Sub(started).Round(time.Millisecond), p.transit().Round(time.Millisecond)))
		}
		ms := remaining.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}

	hr, err := f.client.Do(req)
	if err != nil {
		// Make the caller's deadline visible through the transport
		// error so Retry stops instead of burning attempts.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("peer %s: %v", addr, err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hr.Body, maxResponseBytes+1))
	if err != nil {
		// A body that dies mid-read is the partial-response failure
		// mode; nothing was relayed yet, so it is retryable.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("peer %s: reading response: %v", addr, err)
	}
	if len(raw) > maxResponseBytes {
		return nil, fmt.Errorf("peer %s: response exceeds %d bytes", addr, maxResponseBytes)
	}
	// Transit measurement: attempt wall-clock minus the peer's
	// self-reported execution time is the network + queueing cost this
	// peer charges, folded into the estimate the next budget stamp uses.
	if v := hr.Header.Get(DurationHeader); v != "" {
		if served, perr := strconv.ParseInt(v, 10, 64); perr == nil && served >= 0 {
			p.observeTransit(time.Since(started) - time.Duration(served)*time.Millisecond)
		}
	}
	if hr.StatusCode >= http.StatusInternalServerError {
		err := fmt.Errorf("peer %s: status %d: %s", addr, hr.StatusCode, truncateForLog(raw))
		if after := parseRetryAfter(hr.Header.Get("Retry-After")); after > 0 {
			err = resilient.WithRetryAfter(err, after)
		}
		return nil, err
	}

	out := &Response{Status: hr.StatusCode, Header: make(http.Header), Body: raw}
	if ct := hr.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	// A 201's Location names a resource (a session) that later requests
	// address by path, so it must survive the hop back to the client.
	if loc := hr.Header.Get("Location"); loc != "" {
		out.Header.Set("Location", loc)
	}
	// Relay the daemon's own X-Backbone-* metadata headers in a
	// deterministic order.
	names := make([]string, 0, len(hr.Header))
	for name := range hr.Header {
		if strings.HasPrefix(name, relayPrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		out.Header[name] = hr.Header.Values(name)
	}
	return out, nil
}

// parseRetryAfter reads a delay-seconds Retry-After value; HTTP-date
// forms and garbage parse as 0 (no hint).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// truncateForLog keeps error bodies loggable.
func truncateForLog(b []byte) string {
	const limit = 200
	s := strings.TrimSpace(string(b))
	if len(s) > limit {
		return s[:limit] + "..."
	}
	return s
}

// RecordFallback counts a forward abandoned in favor of local
// execution against the peer that could not serve it.
func (f *Fleet) RecordFallback(addr string) {
	if p := f.peers[addr]; p != nil {
		p.fallbacks.Add(1)
	}
}

// Stats snapshots every peer's counters and breaker, sorted by
// address — the daemon serves this under /statsz.
func (f *Fleet) Stats() []PeerStats {
	out := make([]PeerStats, 0, len(f.members))
	for _, addr := range f.members {
		p := f.peers[addr]
		ps := PeerStats{
			Addr:      addr,
			Self:      addr == f.self,
			Forwards:  p.forwards.Load(),
			Retries:   p.retries.Load(),
			Failures:  p.failures.Load(),
			Fallbacks: p.fallbacks.Load(),
			Breaker:   p.breaker.Stats(),
		}
		if addr != f.self {
			ps.TransitMs = float64(p.transit()) / float64(time.Millisecond)
		}
		out = append(out, ps)
	}
	return out
}
