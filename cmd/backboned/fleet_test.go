package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/resilient"
)

// fleetQuery is the scoring request every fleet test exercises. The
// CSV response is byte-deterministic for a given body, which is what
// lets the tests demand bit-identical output from any serving path
// (owner, cache, or degraded local fallback). response=json would not
// be: its duration_ms field varies run to run.
const fleetQuery = "/backbone?method=nc&delta=1.64"

// fleetHarness is N in-process backboned peers listening on real
// loopback ports (each peer must know the others' dialable addresses
// before any server starts, so httptest's start-then-ask URL order
// cannot wire a fleet).
type fleetHarness struct {
	addrs   []string
	servers []*server
	httpds  []*http.Server
}

// frozenClock never moves and never waits: retry pauses cost nothing,
// and a breaker that opens mid-test stays observably open instead of
// racing the assertions through half-open probes.
type frozenClock struct{ now time.Time }

func (c frozenClock) Now() time.Time { return c.now }

func (frozenClock) Sleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// startFleet boots n peers wired into one fleet. faults chaos-injects
// into the local serving path of the peer at that index. The frozen
// clock and the timeout keep failure detection well under a second so
// the kill tests stay fast.
func startFleet(t *testing.T, n int, faults map[int]*resilient.Fault) *fleetHarness {
	t.Helper()
	h := &fleetHarness{}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		h.addrs = append(h.addrs, ln.Addr().String())
	}
	for i, ln := range listeners {
		fl, err := fleet.New(fleet.Config{
			Self:           h.addrs[i],
			Peers:          h.addrs,
			AttemptTimeout: 2 * time.Second,
			Clock:          frozenClock{now: time.Now()},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(serverConfig{
			workers: 4, timeout: 10 * time.Second, maxBody: 1 << 24,
			graphCacheBytes: 64 << 20, scoreCacheBytes: 64 << 20,
			fleet: fl, fault: faults[i],
		})
		// Expected noise: chaos partial-response aborts and kill tests
		// sever connections; net/http logs both.
		hs := &http.Server{Handler: s, ErrorLog: log.New(io.Discard, "", 0)}
		go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
		h.servers = append(h.servers, s)
		h.httpds = append(h.httpds, hs)
	}
	t.Cleanup(func() {
		for _, hs := range h.httpds {
			hs.Close()
		}
	})
	return h
}

func (h *fleetHarness) url(i int) string { return "http://" + h.addrs[i] }

// kill severs peer i immediately: listener closed, every established
// connection reset — the mid-stream failure mode, not a graceful drain.
func (h *fleetHarness) kill(i int) { h.httpds[i].Close() }

// ownerIndex resolves which peer the fleet routes a body to.
func (h *fleetHarness) ownerIndex(t testing.TB, body []byte) int {
	t.Helper()
	addr := h.servers[0].fleet.Owner(fleet.Digest(sha256.Sum256(body)))
	for i, a := range h.addrs {
		if a == addr {
			return i
		}
	}
	t.Fatalf("owner %q not in fleet %v", addr, h.addrs)
	return -1
}

// fleetBodies generates at least total distinct CSV edge-list bodies,
// and more until every peer owns at least one, returning them grouped
// by owner index. The peers listen on random ports, so which peer owns
// a given body changes from run to run.
func (h *fleetHarness) fleetBodies(t testing.TB, total int) map[int][][]byte {
	t.Helper()
	byOwner := map[int][][]byte{}
	for seed := int64(1); seed <= int64(total) || len(byOwner) < len(h.addrs); seed++ {
		if seed > int64(total)+200 {
			t.Fatalf("%d generated bodies hash to only %d of %d peers", seed-1, len(byOwner), len(h.addrs))
		}
		body := fleetGraphBody(t, seed)
		i := h.ownerIndex(t, body)
		byOwner[i] = append(byOwner[i], body)
	}
	return byOwner
}

// fleetGraphBody builds one reproducible random 300-edge network and
// encodes it as CSV; distinct seeds give distinct digests.
func fleetGraphBody(t testing.TB, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := repro.NewBuilder(false)
	const n = 80
	for added := 0; added < 300; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdgeLabels(fmt.Sprintf("n%d", u), fmt.Sprintf("n%d", v), 1+rng.Float64()*20); err != nil {
			t.Fatal(err)
		}
		added++
	}
	return encodeGraph(t, b.Build(), "csv").Bytes()
}

// postFleet posts one scoring request and returns the response and its
// full body.
func postFleet(t testing.TB, baseURL string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+fleetQuery, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, out
}

// referenceBodies computes the single-node answer for each body — the
// ground truth every fleet serving path must match bit for bit.
func referenceBodies(t *testing.T, bodies [][]byte) map[string][]byte {
	t.Helper()
	_, ref := newTestServer(t, 4, 10*time.Second)
	want := map[string][]byte{}
	for _, body := range bodies {
		resp, out := postFleet(t, ref.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference server: status %d: %s", resp.StatusCode, out)
		}
		want[string(body)] = out
	}
	return want
}

// fleetStatsz decodes the fleet section of one peer's /statsz.
func fleetStatsz(t testing.TB, baseURL string) (self string, peers map[string]fleet.PeerStats) {
	t.Helper()
	resp, err := http.Get(baseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Fleet struct {
			Self  string            `json:"self"`
			Peers []fleet.PeerStats `json:"peers"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	peers = map[string]fleet.PeerStats{}
	for _, p := range out.Fleet.Peers {
		peers[p.Addr] = p
	}
	return out.Fleet.Self, peers
}

// TestFleetRoutesBitIdentical: a healthy 3-peer fleet answers every
// request with exactly the bytes a single-node server produces,
// whichever peer receives it, and stamps X-Backbone-Served-By with the
// body's rendezvous owner. Also pins the one-hop rule: a request
// already carrying the forwarded marker is served locally even by a
// non-owner.
func TestFleetRoutesBitIdentical(t *testing.T) {
	h := startFleet(t, 3, nil)
	byOwner := h.fleetBodies(t, 12)
	var all [][]byte
	for _, bodies := range byOwner {
		all = append(all, bodies...)
	}
	want := referenceBodies(t, all)

	forwarded := 0
	for _, body := range all {
		owner := h.ownerIndex(t, body)
		for i := range h.addrs {
			resp, out := postFleet(t, h.url(i), body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("peer %d: status %d: %s", i, resp.StatusCode, out)
			}
			if got := resp.Header.Get(servedByHeader); got != h.addrs[owner] {
				t.Errorf("peer %d: served-by %q, want owner %q", i, got, h.addrs[owner])
			}
			if got := resp.Header.Get(degradedHeader); got != "" {
				t.Errorf("peer %d: unexpected degraded response (%s) in a healthy fleet", i, got)
			}
			if !bytes.Equal(out, want[string(body)]) {
				t.Errorf("peer %d: response differs from single-node run (%d vs %d bytes)", i, len(out), len(want[string(body)]))
			}
			if i != owner {
				forwarded++
			}
		}
	}
	if forwarded == 0 {
		t.Fatal("no request exercised forwarding; body generation is broken")
	}

	// One-hop rule: a marked request posted to a non-owner is answered
	// locally — correct bytes, served-by the receiving peer itself.
	body := all[0]
	nonOwner := (h.ownerIndex(t, body) + 1) % len(h.addrs)
	req, err := http.NewRequest(http.MethodPost, h.url(nonOwner)+fleetQuery, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(fleet.ForwardedHeader, "test-injected")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded-marker request: status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get(servedByHeader); got != h.addrs[nonOwner] {
		t.Errorf("forwarded-marker request served-by %q, want local peer %q", got, h.addrs[nonOwner])
	}
	if !bytes.Equal(out, want[string(body)]) {
		t.Error("forwarded-marker request answered with different bytes")
	}

	// Forwarding is visible in /statsz: the first peer routed bodies it
	// does not own to their owners.
	_, peers := fleetStatsz(t, h.url(0))
	var forwards uint64
	for addr, p := range peers {
		if addr != h.addrs[0] {
			forwards += p.Forwards
		}
	}
	if forwards == 0 {
		t.Error("peer 0 /statsz records no forwards after cross-peer traffic")
	}
}

// TestFleetSurvivesPeerKilledMidStream is the acceptance scenario: 3
// peers under concurrent load, one killed mid-stream. Every in-flight
// and subsequent request must still succeed, bit-identical to a
// single-node run, and the loss must be observable afterwards —
// degraded responses, fallback counters, an open breaker in /statsz.
func TestFleetSurvivesPeerKilledMidStream(t *testing.T) {
	h := startFleet(t, 3, nil)
	byOwner := h.fleetBodies(t, 12)
	const victim = 2
	var all [][]byte
	for _, bodies := range byOwner {
		all = append(all, bodies...)
	}
	want := referenceBodies(t, all)

	type result struct {
		body   []byte
		status int
		out    []byte
	}
	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := all[rng.Intn(len(all))]
				// Survivors only: the victim's clients are assumed to
				// fail over to live peers themselves (that is what
				// /readyz is for); the fleet's promise is that the
				// survivors keep answering for the victim's shard.
				resp, err := http.Post(h.url(i%2)+fleetQuery, "text/csv", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					results = append(results, result{body: body, status: -1})
					mu.Unlock()
					continue
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				results = append(results, result{body: body, status: resp.StatusCode, out: out})
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond) // let load reach steady state
	h.kill(victim)
	time.Sleep(450 * time.Millisecond) // keep serving through and after the loss
	close(stop)
	wg.Wait()

	if len(results) == 0 {
		t.Fatal("load generator produced no results")
	}
	bad := 0
	for _, r := range results {
		if r.status != http.StatusOK {
			bad++
			t.Errorf("request failed across the kill: status %d", r.status)
			continue
		}
		if !bytes.Equal(r.out, want[string(r.body)]) {
			bad++
			t.Error("response across the kill differs from single-node run")
		}
	}
	t.Logf("%d requests across the kill, %d bad", len(results), bad)

	// A victim-owned body posted after the kill is answered locally,
	// correctly, and says so.
	body := byOwner[victim][0]
	resp, out := postFleet(t, h.url(0), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill request: status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, want[string(body)]) {
		t.Error("post-kill degraded response differs from single-node run")
	}
	if got := resp.Header.Get(servedByHeader); got != h.addrs[0] {
		t.Errorf("post-kill served-by %q, want local peer %q", got, h.addrs[0])
	}
	reason := resp.Header.Get(degradedHeader)
	if reason != "peer-unavailable" && reason != "breaker-open" {
		t.Errorf("post-kill degraded reason %q, want peer-unavailable or breaker-open", reason)
	}

	// The loss is observable: peer 0's /statsz shows fallbacks against
	// the victim, and the victim's breaker tripped open under the load.
	self, peers := fleetStatsz(t, h.url(0))
	if self != h.addrs[0] {
		t.Errorf("/statsz fleet.self = %q, want %q", self, h.addrs[0])
	}
	vp := peers[h.addrs[victim]]
	if vp.Fallbacks == 0 {
		t.Error("/statsz records no fallbacks against the killed peer")
	}
	if vp.Failures == 0 {
		t.Error("/statsz records no failed attempts against the killed peer")
	}
	if vp.Breaker.State != "open" {
		t.Errorf("/statsz breaker state for killed peer = %q, want open", vp.Breaker.State)
	}
}

// TestFleetFaultInjectedPeerDegrades is the second acceptance leg: one
// peer answers every local request with an injected error (the -chaos
// error path at rate 1.0). Requests to the healthy peers must all
// succeed bit-identical to single-node; bodies owned by the poisoned
// peer come back degraded.
func TestFleetFaultInjectedPeerDegrades(t *testing.T) {
	const victim = 2
	h := startFleet(t, 3, map[int]*resilient.Fault{
		victim: {ErrorRate: 1},
	})
	byOwner := h.fleetBodies(t, 12)
	var all [][]byte
	for _, bodies := range byOwner {
		all = append(all, bodies...)
	}
	want := referenceBodies(t, all)

	for _, body := range all {
		owner := h.ownerIndex(t, body)
		for i := 0; i < 2; i++ { // healthy peers only
			resp, out := postFleet(t, h.url(i), body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("peer %d: status %d: %s", i, resp.StatusCode, out)
			}
			if !bytes.Equal(out, want[string(body)]) {
				t.Errorf("peer %d: response differs from single-node run", i)
			}
			reason := resp.Header.Get(degradedHeader)
			if owner == victim {
				if reason != "peer-unavailable" && reason != "breaker-open" {
					t.Errorf("victim-owned body via peer %d: degraded reason %q", i, reason)
				}
				if got := resp.Header.Get(servedByHeader); got != h.addrs[i] {
					t.Errorf("victim-owned body via peer %d: served-by %q, want local", i, got)
				}
			} else if reason != "" {
				t.Errorf("healthy-owned body via peer %d: unexpectedly degraded (%s)", i, reason)
			}
		}
	}

	// The injected errors are visible on both sides: the victim counts
	// its injections, the forwarders count failures against it.
	_, peers := fleetStatsz(t, h.url(0))
	if vp := peers[h.addrs[victim]]; vp.Failures == 0 || vp.Fallbacks == 0 {
		t.Errorf("/statsz for poisoned peer: failures=%d fallbacks=%d, want both > 0", vp.Failures, vp.Fallbacks)
	}
	if stats := h.servers[victim].fault.Stats(); stats.Errors == 0 {
		t.Error("poisoned peer recorded no injected errors")
	}
}

// TestFleetPartialResponseFallback: a peer that truncates every
// response mid-body (the -chaos partial injector) must not poison the
// fleet — the forwarder detects the short body because it buffers
// before relaying, and falls back to a full local answer.
func TestFleetPartialResponseFallback(t *testing.T) {
	const victim = 2
	h := startFleet(t, 3, map[int]*resilient.Fault{
		victim: {PartialRate: 1},
	})
	byOwner := h.fleetBodies(t, 12)
	body := byOwner[victim][0]
	want := referenceBodies(t, [][]byte{body})[string(body)]
	if len(want) <= chaosPartialLimit {
		t.Fatalf("reference response is %d bytes; must exceed the %d-byte truncation budget to test anything", len(want), chaosPartialLimit)
	}

	resp, out := postFleet(t, h.url(0), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("fallback from truncated peer returned %d bytes, want the full %d", len(out), len(want))
	}
	if reason := resp.Header.Get(degradedHeader); reason != "peer-unavailable" && reason != "breaker-open" {
		t.Errorf("degraded reason %q after truncated peer responses", reason)
	}
	if stats := h.servers[victim].fault.Stats(); stats.Partials == 0 {
		t.Error("truncating peer recorded no partial injections")
	}
}
