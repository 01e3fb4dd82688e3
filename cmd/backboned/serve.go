package main

// The request pipeline every work endpoint shares. serve(op) is the
// one skeleton: method check → count → intake (budget, body, the one
// sha256, the graph key) → fleet routing → lane classification →
// admission → chaos → resolve → execute. An op supplies only the parts
// that differ per endpoint; everything else, failures included, happens
// here exactly once.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/resilient"
)

// op is one endpoint on the shared request path.
type op struct {
	// allow is the one HTTP method accepted when the mux pattern does
	// not restrict it ("" when the pattern does).
	allow string
	// counter, when set, counts this endpoint's requests next to the
	// server-wide request counter.
	counter *atomic.Uint64
	// route picks the fleet routing digest (whose rendezvous owner
	// serves the request) and the flight digest (what identical
	// concurrent forwards coalesce on). degrade lets an unreachable
	// owner fall back to local execution; without it the answer is 503,
	// because only the owner holds session state.
	route   func(*call) (owner, flight [sha256.Size]byte)
	degrade bool
	// classify picks the admission lane and latency cost key before a
	// slot is held; nil runs the op outside the worker pool.
	classify func(*call) (admission.Lane, string)
	// resolve finds what the request works on (a parsed, mapped or
	// cached graph, or a session); nil when there is nothing to find.
	resolve func(*call) error
	// execute does the work and writes the response, marking the call
	// admission.OK before it writes.
	execute func(*call) error
}

// call is one request on its way through serve.
type call struct {
	w    http.ResponseWriter
	r    *http.Request
	q    url.Values
	ctx  context.Context
	body []byte
	// sum is the body's sha256, taken once at intake. key is the graph
	// the body parses to; keyErr an unknown input format, reported when
	// (and only if) the op parses the body.
	sum    [sha256.Size]byte
	key    graphKey
	keyErr error
	// id and sid name the session of a /session/{id} route: the path
	// value and the creating body's digest it embeds.
	id  string
	sid [sha256.Size]byte
	// Set by resolve.
	g    *repro.Graph
	env  *envelope
	sess *session
	// outcome is reported to the admission limiter on release.
	outcome admission.Outcome
}

// The routes: a body goes to its digest's owner; session traffic to
// the owner of the digest its session ID embeds. Session updates
// coalesce by their own body instead: set semantics make identical
// update bodies idempotent, while distinct ones must not share a
// forward.
func byBody(c *call) (owner, flight [sha256.Size]byte)        { return c.sum, c.sum }
func bySession(c *call) (owner, flight [sha256.Size]byte)     { return c.sid, c.sid }
func bySessionBody(c *call) (owner, flight [sha256.Size]byte) { return c.sid, c.sum }

// serve is the request skeleton. Only the body read and the forward
// happen before admission: forwarding must not hold a local worker
// slot hostage to a remote peer's latency, or a slow peer would
// saturate this pool too and couple the failure domains the fleet
// exists to separate.
func (s *server) serve(o op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if o.allow != "" && r.Method != o.allow {
			w.Header().Set("Allow", o.allow)
			s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires %s", r.URL.Path, o.allow))
			return
		}
		s.requests.Add(1)
		if o.counter != nil {
			o.counter.Add(1)
		}
		c := &call{w: w, r: r, q: r.URL.Query(), id: r.PathValue("id"), outcome: admission.Errored}
		if c.id != "" {
			var ok bool
			if c.sid, ok = parseSessionID(c.id); !ok {
				s.fail(w, http.StatusBadRequest, fmt.Errorf("malformed session id %q", c.id))
				return
			}
		}
		cancel, ok := s.intake(c)
		if !ok {
			return
		}
		defer cancel()
		if s.forwarded(c, o) {
			return
		}
		if o.classify != nil {
			lane, costKey := o.classify(c)
			tk, ok := s.acquire(c.ctx, w, lane, costKey)
			if !ok {
				return
			}
			// The outcome feeds the AIMD controller: OK completions are
			// latency evidence, a deadline death mid-execution is a
			// congestion signal, everything else (caller mistakes,
			// panics, vanished clients) is noise.
			defer func() { tk.Release(c.outcome) }()
			if c.w, ok = s.chaos(c.ctx, w); !ok {
				return
			}
		}
		var err error
		if o.resolve != nil {
			err = o.resolve(c)
		}
		if err == nil {
			err = o.execute(c)
		}
		if err != nil {
			status := statusFor(err)
			if status == http.StatusGatewayTimeout {
				c.outcome = admission.Timeout
			}
			s.fail(c.w, status, err)
		}
	}
}

// intake applies the per-request budget, reads (and bounds) the body
// and derives its key. The budget is the smaller of the local -timeout
// and the propagated X-Backbone-Deadline header (remaining
// milliseconds, stamped by a forwarding peer or a deadline-aware
// client); a budget already spent upstream is answered 504 before any
// byte of work. The body is read before admission — it is I/O-bound,
// and draining it lets the connection's background read detect a
// vanished client while the request queues for a slot. On failure the
// response is written and ok is false; on success the caller must
// cancel with the request.
func (s *server) intake(c *call) (cancel context.CancelFunc, ok bool) {
	budget := s.timeout
	if v := c.r.Header.Get(fleet.DeadlineHeader); v != "" {
		ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch {
		case err != nil:
			// Garbage is ignored, not fatal: the header is advisory and
			// the local -timeout still bounds the request.
		case ms <= 0:
			s.expiredArrivals.Add(1)
			s.fail(c.w, http.StatusGatewayTimeout,
				fmt.Errorf("request budget already expired upstream (%s: %s)", fleet.DeadlineHeader, v))
			return nil, false
		default:
			if d := time.Duration(ms) * time.Millisecond; budget <= 0 || d < budget {
				budget = d
			}
		}
	}
	c.ctx, cancel = c.r.Context(), func() {}
	if budget > 0 {
		c.ctx, cancel = context.WithTimeout(c.ctx, budget)
	}
	body, err := io.ReadAll(http.MaxBytesReader(c.w, c.r.Body, s.maxBody))
	if err != nil {
		defer cancel()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(c.w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return nil, false
		}
		s.fail(c.w, http.StatusBadRequest, fmt.Errorf("read body: %v", err))
		return nil, false
	}
	c.body, c.sum = body, sha256.Sum256(body)
	c.key, c.keyErr = bodyKey(c.r, c.q, c.sum)
	return cancel, true
}

// bodyKey derives the graph key of a request body from its digest and
// the request line: the parse mode (an input format from ?format= or
// the Content-Type, "sniff", or "envelope" for a JSON body) and the
// query's directedness. An envelope's own "directed" field refines the
// key when resolve decodes it.
func bodyKey(r *http.Request, q url.Values, sum [sha256.Size]byte) (graphKey, error) {
	key := graphKey{sum: sum, mode: "sniff", directed: q.Get("directed") == "true" || q.Get("directed") == "1"}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	if ct == "application/json" {
		key.mode = "envelope"
		return key, nil
	}
	inFormat := q.Get("format")
	if inFormat == "" {
		inFormat = contentTypeFormat(ct)
	}
	if inFormat != "" {
		f, err := repro.LookupFormat(inFormat)
		if err != nil {
			return key, err
		}
		key.mode = f.Name
	}
	return key, nil
}

// servedByHeader names the peer whose worker pool computed (or cached)
// the response; degradedHeader appears only when the body's owning
// peer could not answer and the receiving peer computed the result
// itself — correctness kept, cache locality lost.
const (
	servedByHeader = "X-Backbone-Served-By"
	degradedHeader = "X-Backbone-Degraded"
)

// forwarded applies the fleet routing policy. It returns true when the
// response has been fully written (the owning peer answered and was
// relayed, or routing failed terminally); false means execute locally —
// this peer owns the request, the request already made its one
// forwarding hop, or the owner is unavailable and the op degrades.
func (s *server) forwarded(c *call, o op) bool {
	if s.fleet == nil {
		return false
	}
	if c.r.Header.Get(fleet.ForwardedHeader) != "" {
		// Terminal hop: a peer already routed this request here; serve
		// it locally whatever our own ring says, so divergent
		// membership views cannot ping-pong a request.
		c.w.Header().Set(servedByHeader, s.fleet.Self())
		return false
	}
	owner, flight := o.route(c)
	addr := s.fleet.Owner(fleet.Digest(owner))
	if addr == s.fleet.Self() {
		c.w.Header().Set(servedByHeader, addr)
		return false
	}
	resp, err := s.fleet.ForwardRequest(c.ctx, addr, fleet.Digest(flight), c.r.Method, c.r.URL.Path,
		c.r.URL.RawQuery, c.r.Header.Get("Content-Type"), c.r.Header.Get("Accept"), c.body)
	switch {
	case err == nil:
		for name, vals := range resp.Header {
			c.w.Header()[name] = vals
		}
		c.w.Header().Set(servedByHeader, addr)
		c.w.WriteHeader(resp.Status)
		if _, err := c.w.Write(resp.Body); err != nil {
			s.logf("fleet: relay response from %s: %v", addr, err)
		}
		return true
	case c.ctx.Err() != nil:
		// The request itself is out of budget (client gone or timeout):
		// local execution could not finish either.
		s.fail(c.w, statusFor(c.ctx.Err()), c.ctx.Err())
		return true
	case !o.degrade:
		s.sessionOwnerMiss.Add(1)
		c.w.Header().Set("Retry-After", "1")
		s.fail(c.w, http.StatusServiceUnavailable,
			fmt.Errorf("session owner %s unavailable (sessions do not degrade): %v", addr, err))
		return true
	}
	// Degrade gracefully: the owner cannot answer, so this peer computes
	// the result itself. Correctness is never lost on peer failure —
	// only the owner's cache locality.
	s.fleet.RecordFallback(addr)
	reason := "peer-unavailable"
	if errors.Is(err, resilient.ErrOpen) {
		reason = "breaker-open"
	}
	s.logf("fleet: degrading to local execution for %s (%s): %v", addr, reason, err)
	c.w.Header().Set(servedByHeader, s.fleet.Self())
	c.w.Header().Set(degradedHeader, reason)
	return false
}

// acquire admits the request into the adaptive worker pool
// (internal/admission) under its lane and latency cost key. A shed —
// queue full, queue wait expired, or a budget that cannot cover the
// observed p90 cost of the work ahead — is a 503 whose Retry-After is
// computed from queue depth; a budget already expired on arrival is a
// 504. On ok the caller MUST defer the ticket's Release immediately — a
// panicking op must still return its slot, or the pool shrinks by one
// forever (regression-pinned by TestPanickingHandlerReleasesSlot).
func (s *server) acquire(ctx context.Context, w http.ResponseWriter, lane admission.Lane, costKey string) (*admission.Ticket, bool) {
	tk, err := s.limiter.Acquire(ctx, lane, costKey)
	if err == nil {
		return tk, true
	}
	var shed *admission.ShedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfterSeconds()))
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("worker pool saturated: %w", err))
	case errors.Is(err, admission.ErrExpired):
		s.fail(w, http.StatusGatewayTimeout, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
	return nil, false
}

// chaosPartialLimit is how much of a response the partial-fault
// injector lets through before aborting the connection.
const chaosPartialLimit = 64

// chaosWriter truncates the response after a byte budget and aborts
// the connection (http.ErrAbortHandler unwinds through the handler and
// net/http closes the stream mid-body) — the partial-response failure
// a forwarding peer must detect and fall back from.
type chaosWriter struct {
	http.ResponseWriter
	remaining int
}

func (cw *chaosWriter) Write(p []byte) (int, error) {
	if len(p) <= cw.remaining {
		cw.remaining -= len(p)
		return cw.ResponseWriter.Write(p)
	}
	cw.ResponseWriter.Write(p[:cw.remaining]) //nolint:errcheck // aborting anyway
	cw.remaining = 0
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// chaos applies the -chaos fault hooks to the local serving path:
// injected latency/errors before any work, and a truncating writer
// afterwards. It returns the writer to respond through, and false when
// injection failed the request.
func (s *server) chaos(ctx context.Context, w http.ResponseWriter) (http.ResponseWriter, bool) {
	if s.fault == nil {
		return w, true
	}
	if err := s.fault.Inject(ctx); err != nil {
		s.fail(w, statusFor(err), err)
		return w, false
	}
	if s.fault.Partial() {
		w = &chaosWriter{ResponseWriter: w, remaining: chaosPartialLimit}
	}
	return w, true
}

// scoreGate is the last check before scoring work starts: a request
// whose deadline has already passed is refused here, whatever got it
// this far (queue wait, parse time, a follower joining a dead
// leader's flight). The violation counter records a past-deadline
// start the context machinery had not yet surfaced — the overload e2e
// asserts it stays zero.
func (s *server) scoreGate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		s.expiredBeforeScoring.Add(1)
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		s.deadlineViolations.Add(1)
		s.expiredBeforeScoring.Add(1)
		return context.DeadlineExceeded
	}
	return nil
}
