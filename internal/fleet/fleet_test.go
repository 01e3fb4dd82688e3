package fleet

import (
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilient"
)

// testFleet builds a two-member fleet whose only forwardable peer is
// the given backend handler, and returns the fleet plus the peer addr.
// Without a clock in cfg it gets a recording clock, so backoff pauses
// cost no wall time.
func testFleet(t *testing.T, backend http.Handler, cfg Config) (*Fleet, string) {
	t.Helper()
	ts := httptest.NewServer(backend)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	cfg.Self = "self.invalid:0"
	cfg.Peers = []string{addr}
	if cfg.Clock == nil {
		cfg.Clock = newRecordingClock()
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, addr
}

func digestOf(body string) Digest { return sha256.Sum256([]byte(body)) }

// breakerState reads addr's breaker position from Stats, the snapshot
// the daemon serves under /statsz.
func breakerState(t *testing.T, f *Fleet, addr string) string {
	t.Helper()
	for _, ps := range f.Stats() {
		if ps.Addr == addr {
			return ps.Breaker.State
		}
	}
	t.Fatalf("no stats for peer %s", addr)
	return ""
}

// TestForwardRelaysResponse: a healthy forward carries the request
// through (body, query, content type, accept, hop marker) and returns
// the peer's status, X-Backbone-* headers and body.
func TestForwardRelaysResponse(t *testing.T) {
	var seen struct {
		sync.Mutex
		path, query, ct, accept, hop, body string
	}
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		seen.Lock()
		seen.path, seen.query = r.URL.Path, r.URL.RawQuery
		seen.ct, seen.accept = r.Header.Get("Content-Type"), r.Header.Get("Accept")
		seen.hop, seen.body = r.Header.Get(ForwardedHeader), string(b)
		seen.Unlock()
		w.Header().Set("X-Backbone-Method", "nc")
		w.Header().Set("X-Backbone-Cache", "hit")
		w.Header().Set("X-Internal-Secret", "do-not-relay")
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, "a,b,1\n")
	}), Config{})

	body := "a,b,1\nb,c,2\n"
	resp, err := f.ForwardRequest(context.Background(), addr, digestOf(body), http.MethodPost,
		"/backbone", "method=nc&delta=1.64", "text/csv", "application/json", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusOK || string(resp.Body) != "a,b,1\n" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	if resp.Header.Get("X-Backbone-Method") != "nc" || resp.Header.Get("X-Backbone-Cache") != "hit" {
		t.Errorf("X-Backbone headers not relayed: %v", resp.Header)
	}
	if resp.Header.Get("X-Internal-Secret") != "" {
		t.Error("non-backbone header relayed")
	}
	if resp.Header.Get("Content-Type") != "text/csv; charset=utf-8" {
		t.Errorf("content type not relayed: %v", resp.Header)
	}
	seen.Lock()
	defer seen.Unlock()
	if seen.path != "/backbone" || seen.query != "method=nc&delta=1.64" ||
		seen.ct != "text/csv" || seen.accept != "application/json" || seen.body != body {
		t.Errorf("request not carried through: path=%q query=%q ct=%q accept=%q body=%q",
			seen.path, seen.query, seen.ct, seen.accept, seen.body)
	}
	if seen.hop != f.Self() {
		t.Errorf("hop marker = %q, want self %q", seen.hop, f.Self())
	}
}

// TestForwardRetriesThenSucceeds: transient 5xx attempts are retried
// with backoff and counted.
func TestForwardRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	}), Config{})

	resp, err := f.ForwardRequest(context.Background(), addr, digestOf("x"), http.MethodPost, "/backbone", "", "text/csv", "", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ok" {
		t.Errorf("body = %q", resp.Body)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d attempts, want 3", got)
	}
	st := f.Stats()
	var peer PeerStats
	for _, s := range st {
		if s.Addr == addr {
			peer = s
		}
	}
	if peer.Forwards != 1 || peer.Retries != 2 || peer.Failures != 2 {
		t.Errorf("peer stats = %+v, want 1 forward, 2 retries, 2 failures", peer)
	}
}

// TestForwardBreakerOpensAndFailsFast: a persistently failing peer
// trips its breaker; the next forward is rejected without touching the
// network, and the error names the open breaker.
func TestForwardBreakerOpensAndFailsFast(t *testing.T) {
	var calls atomic.Int32
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}), Config{})

	// Two forwards of 3 attempts each reach the 5-failure threshold.
	for _, body := range []string{"x", "w"} {
		_, err := f.ForwardRequest(context.Background(), addr, digestOf(body), http.MethodPost, "/backbone", "", "text/csv", "", []byte(body))
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("err = %v, want ErrPeerUnavailable", err)
		}
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("backend saw %d attempts, want 5", got)
	}
	if st := breakerState(t, f, addr); st != resilient.Open.String() {
		t.Fatalf("breaker = %v after threshold failures, want open", st)
	}

	_, err := f.ForwardRequest(context.Background(), addr, digestOf("y"), http.MethodPost, "/backbone", "", "text/csv", "", []byte("y"))
	if !errors.Is(err, ErrPeerUnavailable) || !errors.Is(err, resilient.ErrOpen) {
		t.Fatalf("err = %v, want ErrPeerUnavailable wrapping ErrOpen", err)
	}
	if got := calls.Load(); got != 5 {
		t.Errorf("open breaker still let %d attempts through", got-5)
	}
}

// TestForwardShippedRetryAndBreaker runs the retry schedule and breaker
// thresholds the daemon ships, on a recording clock against an
// always-500 peer: 3 attempts per forward with pauses of at most 50ms
// and then 100ms, the 5th consecutive failure opens the breaker, and
// it rejects until 5s have passed, then lets one half-open probe
// through.
func TestForwardShippedRetryAndBreaker(t *testing.T) {
	clock := newRecordingClock()
	var calls atomic.Int32
	var failed5 atomic.Int64 // clock time of the 5th failure, in ns
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			failed5.Store(clock.Now().UnixNano())
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}), Config{Clock: clock})
	forward := func(body string) error {
		_, err := f.ForwardRequest(context.Background(), addr, digestOf(body), http.MethodPost, "/backbone", "", "text/csv", "", []byte(body))
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("forward %q: err = %v, want ErrPeerUnavailable", body, err)
		}
		return err
	}

	forward("a")
	if got := calls.Load(); got != 3 {
		t.Fatalf("first forward made %d attempts, want 3", got)
	}
	sleeps := clock.sleeps()
	if len(sleeps) != 2 || sleeps[0] > 50*time.Millisecond || sleeps[1] > 100*time.Millisecond {
		t.Fatalf("pauses %v, want two, at most 50ms and then at most 100ms", sleeps)
	}
	if st := breakerState(t, f, addr); st != resilient.Closed.String() {
		t.Fatalf("breaker = %v after 3 failures, want closed", st)
	}

	// Failures 4 and 5; the 5th opens the breaker, so the forward's
	// third attempt never reaches the peer.
	if err := forward("b"); !errors.Is(err, resilient.ErrOpen) {
		t.Fatalf("err = %v, want the open breaker", err)
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("backend saw %d attempts, want 5", got)
	}

	openedAt := time.Unix(0, failed5.Load())
	clock.set(openedAt.Add(5*time.Second - time.Millisecond))
	if err := forward("c"); !errors.Is(err, resilient.ErrOpen) || calls.Load() != 5 {
		t.Fatalf("forward 1ms before the cooldown ends: err = %v after %d attempts, want ErrOpen after 5", err, calls.Load())
	}
	clock.set(openedAt.Add(5 * time.Second))
	if st := breakerState(t, f, addr); st != resilient.HalfOpen.String() {
		t.Fatalf("breaker = %v once the cooldown ends, want half-open", st)
	}
	// One probe reaches the peer; its failure reopens the breaker, which
	// rejects the forward's next attempt.
	if err := forward("d"); !errors.Is(err, resilient.ErrOpen) || calls.Load() != 6 {
		t.Fatalf("forward after the cooldown: err = %v after %d attempts, want ErrOpen after 6", err, calls.Load())
	}
	if st := breakerState(t, f, addr); st != resilient.Open.String() {
		t.Fatalf("breaker = %v after a failed probe, want open", st)
	}
}

// TestForwardSingleFlight: identical concurrent forwards coalesce into
// one upstream request.
func TestForwardSingleFlight(t *testing.T) {
	var calls atomic.Int32
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(100 * time.Millisecond)
		io.WriteString(w, "slow-ok")
	}), Config{})

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.ForwardRequest(context.Background(), addr, digestOf("same"), http.MethodPost, "/backbone", "top=5", "text/csv", "", []byte("same"))
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Body) != "slow-ok" {
				errs <- errors.New("wrong body " + string(resp.Body))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d requests for one flight key, want 1", got)
	}
	// A different query is a different computation: no coalescing.
	if _, err := f.ForwardRequest(context.Background(), addr, digestOf("same"), http.MethodPost, "/backbone", "top=9", "text/csv", "", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("distinct query coalesced (backend saw %d)", got)
	}
}

// TestForwardCallerErrorsRelayedNotRetried: a 4xx is the peer working
// correctly — relay it, spend no retries, leave the breaker closed.
func TestForwardCallerErrorsRelayedNotRetried(t *testing.T) {
	var calls atomic.Int32
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown method"}`, http.StatusBadRequest)
	}), Config{})

	resp, err := f.ForwardRequest(context.Background(), addr, digestOf("x"), http.MethodPost, "/backbone", "method=bogus", "text/csv", "", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusBadRequest || calls.Load() != 1 {
		t.Errorf("status %d after %d attempts, want 400 after 1", resp.Status, calls.Load())
	}
	if st := breakerState(t, f, addr); st != resilient.Closed.String() {
		t.Errorf("breaker = %v after a 4xx, want closed", st)
	}
}

// TestForwardDeadPeerFailsOver: connection refused exhausts retries
// quickly and reports the peer unavailable.
func TestForwardDeadPeerFailsOver(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := ts.Listener.Addr().String()
	ts.Close() // nothing listens there anymore
	f, err := New(Config{Self: "self.invalid:0", Peers: []string{addr}, Clock: newRecordingClock()})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = f.ForwardRequest(context.Background(), addr, digestOf("x"), http.MethodPost, "/backbone", "", "text/csv", "", []byte("x"))
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v, want ErrPeerUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("dead-peer failover took %v", elapsed)
	}
}

// TestForwardHonorsRequestDeadline: the caller's deadline caps the
// whole retry loop — no attempt starts after it.
func TestForwardHonorsRequestDeadline(t *testing.T) {
	clock := newRecordingClock()
	var calls atomic.Int32
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}), Config{Clock: clock})
	// Jitter at its maximum: pauses of exactly 50ms and then 100ms.
	f.retry.Rand = func(n int64) int64 { return n - 1 }

	// A 120ms budget fits attempts at 0 and 50ms; the third would start
	// at 150ms.
	ctx, cancel := context.WithDeadline(context.Background(), clock.Now().Add(120*time.Millisecond))
	defer cancel()
	_, err := f.ForwardRequest(ctx, addr, digestOf("x"), http.MethodPost, "/backbone", "", "text/csv", "", []byte("x"))
	if err == nil {
		t.Fatal("forward succeeded against an always-500 peer")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend saw %d attempts under a 120ms budget with a 50ms then 100ms backoff, want 2", got)
	}
}

// TestForwardRetryAfterHint: a 503's Retry-After raises the backoff
// pause; with an injectable clock the exact sleep is pinned.
func TestForwardRetryAfterHint(t *testing.T) {
	clock := newRecordingClock()
	var calls atomic.Int32
	f, addr := testFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "saturated", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok")
	}), Config{Clock: clock})

	resp, err := f.ForwardRequest(context.Background(), addr, digestOf("x"), http.MethodPost, "/backbone", "", "text/csv", "", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ok" {
		t.Errorf("body = %q", resp.Body)
	}
	sleeps := clock.sleeps()
	if len(sleeps) != 1 || sleeps[0] != 2*time.Second {
		t.Errorf("slept %v, want exactly the 2s Retry-After hint", sleeps)
	}
}

// recordingClock advances instantly and records sleeps (the fleet-side
// twin of the resilient package's fake clock).
type recordingClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

// newRecordingClock starts at the real present, so a request deadline
// taken from the wall clock means the same instant on this clock.
func newRecordingClock() *recordingClock { return &recordingClock{now: time.Now()} }

func (c *recordingClock) set(now time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

func (c *recordingClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *recordingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *recordingClock) sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}
