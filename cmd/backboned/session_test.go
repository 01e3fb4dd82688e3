package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/resilient"
)

// sessionClient wraps the session wire protocol for tests.
type sessionClient struct {
	t    testing.TB
	base string
	id   string
}

func openSession(t testing.TB, baseURL string, body *bytes.Buffer) *sessionClient {
	t.Helper()
	resp, err := http.Post(baseURL+"/session", "text/csv", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Session string `json:"session"`
		Nodes   int    `json:"nodes"`
		Edges   int    `json:"edges"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("create session: %v in %s", err, raw)
	}
	if out.Session == "" || out.Edges == 0 {
		t.Fatalf("create session: empty response %s", raw)
	}
	if loc := resp.Header.Get("Location"); loc != "/session/"+out.Session {
		t.Fatalf("Location %q does not name session %q", loc, out.Session)
	}
	return &sessionClient{t: t, base: baseURL, id: out.Session}
}

type wireUpdate struct {
	Src    string   `json:"src"`
	Dst    string   `json:"dst"`
	Weight *float64 `json:"weight"`
}

func (c *sessionClient) update(ups []wireUpdate) (*http.Response, []byte) {
	c.t.Helper()
	body, err := json.Marshal(map[string]any{"updates": ups})
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/session/"+c.id+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func (c *sessionClient) mustUpdate(ups []wireUpdate) {
	c.t.Helper()
	resp, raw := c.update(ups)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("update: status %d: %s", resp.StatusCode, raw)
	}
}

// close issues a best-effort DELETE for the session.
func (c *sessionClient) close() {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/session/"+c.id, nil)
	if err != nil {
		return
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func (c *sessionClient) get(endpoint, query string) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.base + "/session/" + c.id + "/" + endpoint + "?" + query)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// sessionOracle tracks the session's intended edge set so tests can
// rebuild the equivalent full body and compare against the stateless
// endpoints. Pairs are keyed by canonical node IDs of the base graph.
type sessionOracle struct {
	g     *repro.Graph
	state map[[2]int32]float64
}

func newSessionOracle(g *repro.Graph) *sessionOracle {
	o := &sessionOracle{g: g, state: map[[2]int32]float64{}}
	for _, e := range g.Edges() {
		o.state[[2]int32{e.Src, e.Dst}] = e.Weight
	}
	return o
}

func (o *sessionOracle) apply(ups []wireUpdate) {
	for _, u := range ups {
		src, dst := int32(o.g.NodeID(u.Src)), int32(o.g.NodeID(u.Dst))
		if src > dst {
			src, dst = dst, src
		}
		var w float64
		if u.Weight != nil {
			w = *u.Weight
		}
		if w == 0 {
			delete(o.state, [2]int32{src, dst})
		} else {
			o.state[[2]int32{src, dst}] = w
		}
	}
}

// body re-encodes the oracle's current edge set as a CSV body — what a
// stateless client would POST after the same updates.
func (o *sessionOracle) body(t testing.TB) *bytes.Buffer {
	t.Helper()
	keys := make([][2]int32, 0, len(o.state))
	//lint:detiter-ok keys are sorted before use
	for k := range o.state {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	b := repro.NewBuilder(false)
	for _, k := range keys {
		if err := b.AddEdgeLabels(o.g.Label(int(k[0])), o.g.Label(int(k[1])), o.state[k]); err != nil {
			t.Fatal(err)
		}
	}
	return encodeGraph(t, b.Build(), "csv")
}

// semanticDiffCSV compares two CSV responses as row sets keyed by
// their (undirected) endpoint labels: the header and row count must
// match exactly, weight columns byte-for-byte, score columns to
// relative float tolerance. Node IDs — and therefore row order,
// endpoint orientation and float summation order — depend on label
// first-appearance order in the posted body, so byte equality is not
// defined between a session and a stateless re-post of a different
// body. Returns "" when equal, else a description of the first
// difference.
func semanticDiffCSV(got, want []byte) string {
	parse := func(raw []byte) (string, map[string][]string) {
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		rows := make(map[string][]string, len(lines))
		for _, line := range lines[1:] {
			f := strings.Split(line, ",")
			if len(f) < 2 {
				return lines[0], nil
			}
			a, b := f[0], f[1]
			if a > b {
				a, b = b, a
			}
			rows[a+","+b] = f[2:]
		}
		return lines[0], rows
	}
	gh, grows := parse(got)
	wh, wrows := parse(want)
	if gh != wh {
		return "headers differ: " + gh + " vs " + wh
	}
	if len(grows) != len(wrows) {
		return "row counts differ: " + strconv.Itoa(len(grows)) + " vs " + strconv.Itoa(len(wrows))
	}
	for key, gf := range grows {
		wf, ok := wrows[key]
		if !ok {
			return "row " + key + " only in session response"
		}
		if len(gf) != len(wf) {
			return "row " + key + ": field counts differ"
		}
		for i := range gf {
			if gf[i] == wf[i] {
				continue
			}
			gv, gerr := strconv.ParseFloat(gf[i], 64)
			wv, werr := strconv.ParseFloat(wf[i], 64)
			if gerr != nil || werr != nil ||
				math.Abs(gv-wv) > 1e-9*math.Max(1, math.Max(math.Abs(gv), math.Abs(wv))) {
				return "row " + key + ": field " + strconv.Itoa(i) + ": " + gf[i] + " vs " + wf[i]
			}
		}
	}
	return ""
}

// firstDiffLine reports the first line where two responses differ.
func firstDiffLine(got, want string) string {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return "line " + strconv.Itoa(i+1) + ":\nsession:   " + g + "\nstateless: " + w
		}
	}
	return "lengths differ only"
}

// post runs a stateless POST endpoint and returns status + body.
func postBody(t testing.TB, url string, body *bytes.Buffer) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/csv", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestSessionLifecycleBitIdentical is the tentpole acceptance test.
// A session driven by a random update stream must answer every read
// with exactly the bytes a cold rebuild produces: a fresh "replay"
// session over the same base body, handed the whole update history in
// one batch, answers from a full rescore of the bit-identical
// materialized graph — the incremental session must match it
// byte-for-byte, for a frontier method (df), global-signature methods
// (nc, nt) and an extract-only method (mst). A stateless re-post of
// the modified edge list is additionally checked as a semantic
// oracle: same rows, same weights, scores equal to float tolerance
// (node IDs — and so summation order and final ulps — depend on label
// first-appearance order in the posted body, so exact bytes are not
// defined across different bodies).
func TestSessionLifecycleBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, 4, 30*time.Second)
	g := testGraph(t, 300)
	oracle := newSessionOracle(g)
	base := encodeGraph(t, g, "csv")
	c := openSession(t, ts.URL, base)

	rng := rand.New(rand.NewSource(41))
	labels := g.Labels()
	randomBatch := func() []wireUpdate {
		ups := make([]wireUpdate, rng.Intn(4)+1)
		for i := range ups {
			u, v := rng.Intn(len(labels)), rng.Intn(len(labels))
			for u == v {
				v = rng.Intn(len(labels))
			}
			w := 0.0
			if rng.Intn(4) != 0 {
				w = float64(rng.Intn(40) + 1)
			}
			ups[i] = wireUpdate{Src: labels[u], Dst: labels[v], Weight: &w}
		}
		return ups
	}

	var history []wireUpdate
	for step := 0; step < 6; step++ {
		batch := randomBatch()
		c.mustUpdate(batch)
		oracle.apply(batch)
		history = append(history, batch...)

		// Cold-rebuild oracle: same base body (the graph cache even
		// hands both sessions the same *Graph), whole history in one
		// batch, no warm tables — every read is a full rescore of the
		// same materialized graph.
		replay := openSession(t, ts.URL, base)
		replay.mustUpdate(history)
		full := oracle.body(t)

		for _, q := range []struct{ endpoint, query string }{
			{"backbone", "method=df"},
			{"backbone", "method=nc&delta=1.64"},
			{"backbone", "method=mst"},
			{"backbone", "method=nt&top=40"},
			{"score", "method=df"},
		} {
			resp, got := c.get(q.endpoint, q.query)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d %s?%s: status %d: %s", step, q.endpoint, q.query, resp.StatusCode, got)
			}
			if resp.Header.Get("X-Backbone-Session") != c.id {
				t.Fatalf("step %d: missing session header", step)
			}

			rresp, cold := replay.get(q.endpoint, q.query)
			if rresp.StatusCode != http.StatusOK {
				t.Fatalf("step %d replay %s?%s: status %d: %s", step, q.endpoint, q.query, rresp.StatusCode, cold)
			}
			if !bytes.Equal(got, cold) {
				t.Fatalf("step %d %s?%s: incremental diverges from cold rebuild\n%s",
					step, q.endpoint, q.query, firstDiffLine(string(got), string(cold)))
			}

			status, want := postBody(t, ts.URL+"/"+q.endpoint+"?"+q.query, full)
			if status != http.StatusOK {
				t.Fatalf("step %d stateless %s?%s: status %d: %s", step, q.endpoint, q.query, status, want)
			}
			if diff := semanticDiffCSV(got, want); diff != "" {
				t.Fatalf("step %d %s?%s: session response diverges from stateless re-post: %s",
					step, q.endpoint, q.query, diff)
			}
		}
		replay.close()
	}
}

// TestSessionRescoredSubset pins the perf contract at the HTTP layer:
// after the first (full) scoring read, a single-edge update re-scores
// a strict subset of rows for a frontier method, and repeating the
// read without updates re-scores nothing.
func TestSessionRescoredSubset(t *testing.T) {
	_, ts := newTestServer(t, 4, 30*time.Second)
	g := testGraph(t, 400)
	c := openSession(t, ts.URL, encodeGraph(t, g, "csv"))

	rescoredOf := func(resp *http.Response) int {
		t.Helper()
		n, err := strconv.Atoi(resp.Header.Get("X-Backbone-Rescored"))
		if err != nil {
			t.Fatalf("X-Backbone-Rescored %q: %v", resp.Header.Get("X-Backbone-Rescored"), err)
		}
		return n
	}

	resp, _ := c.get("backbone", "method=df")
	first := rescoredOf(resp)
	if first != g.NumEdges() || resp.Header.Get("X-Backbone-Cache") != "miss" {
		t.Fatalf("first read: rescored %d of %d, cache %q; want full miss",
			first, g.NumEdges(), resp.Header.Get("X-Backbone-Cache"))
	}

	w := 7.0
	c.mustUpdate([]wireUpdate{{Src: g.Label(0), Dst: g.Label(1), Weight: &w}})
	resp, _ = c.get("backbone", "method=df")
	delta := rescoredOf(resp)
	if delta == 0 || delta >= g.NumEdges() {
		t.Fatalf("incremental read rescored %d of %d rows; want a strict non-empty subset", delta, g.NumEdges())
	}

	resp, _ = c.get("backbone", "method=df")
	if n := rescoredOf(resp); n != 0 || resp.Header.Get("X-Backbone-Cache") != "hit" {
		t.Fatalf("repeat read: rescored %d, cache %q; want 0/hit", n, resp.Header.Get("X-Backbone-Cache"))
	}
}

// TestSessionStaleTableFullRescore: a method's table left two
// materializations behind (df below, while nt reads in between) no
// longer has a row diff reaching it, because the exclusive delta
// recycled its graph's arrays. Its next read must re-score every row
// and still answer the cold replay's bytes; the table one
// materialization behind (nt) rides the diff.
func TestSessionStaleTableFullRescore(t *testing.T) {
	_, ts := newTestServer(t, 4, 30*time.Second)
	g := testGraph(t, 300)
	oracle := newSessionOracle(g)
	base := encodeGraph(t, g, "csv")
	c := openSession(t, ts.URL, base)

	rescored := func(method string) (int, []byte) {
		t.Helper()
		resp, raw := c.get("backbone", "method="+method)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s read: status %d: %s", method, resp.StatusCode, raw)
		}
		n, err := strconv.Atoi(resp.Header.Get("X-Backbone-Rescored"))
		if err != nil {
			t.Fatalf("X-Backbone-Rescored %q: %v", resp.Header.Get("X-Backbone-Rescored"), err)
		}
		return n, raw
	}
	var history []wireUpdate
	update := func(src, dst int, w float64) {
		ups := []wireUpdate{{Src: g.Label(src), Dst: g.Label(dst), Weight: &w}}
		c.mustUpdate(ups)
		oracle.apply(ups)
		history = append(history, ups...)
	}

	rescored("df")
	update(0, 1, 7)
	rescored("nt")
	update(2, 3, 11)
	if n, _ := rescored("nt"); n == 0 || n >= len(oracle.state) {
		t.Fatalf("nt one materialization behind rescored %d of %d rows; want a strict non-empty subset", n, len(oracle.state))
	}
	n, got := rescored("df")
	if n != len(oracle.state) {
		t.Fatalf("df two materializations behind rescored %d rows; want all %d", n, len(oracle.state))
	}

	replay := openSession(t, ts.URL, base)
	defer replay.close()
	replay.mustUpdate(history)
	resp, cold := replay.get("backbone", "method=df")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay df read: status %d: %s", resp.StatusCode, cold)
	}
	if !bytes.Equal(got, cold) {
		t.Fatalf("stale df table diverges from cold replay\n%s", firstDiffLine(string(got), string(cold)))
	}
}

// TestSessionReadLanes: a session read takes the fast lane exactly when
// the session holds the entry its cut reads — an extraction of the
// current edge set, or a table a frontier rescore at most behind — and
// answers hit exactly when it computed nothing. ds's table (from its
// score read) does not make a native ds read fast; an update drops the
// extractions and the tables of methods that rescore in full (nc).
func TestSessionReadLanes(t *testing.T) {
	s, ts := newTestServer(t, 2, 10*time.Second)
	g := testGraph(t, 400)
	base := encodeGraph(t, g, "csv")
	c := openSession(t, ts.URL, base)

	type reply struct {
		fast     bool
		cache    string
		rescored int
		body     []byte
	}
	read := func(endpoint, query string) reply {
		t.Helper()
		before := s.limiter.Stats()
		resp, raw := c.get(endpoint, query)
		after := s.limiter.Stats()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s?%s: status %d: %s", endpoint, query, resp.StatusCode, raw)
		}
		fast, cold := after.Fast.Admitted-before.Fast.Admitted, after.Cold.Admitted-before.Cold.Admitted
		if fast+cold != 1 {
			t.Fatalf("%s?%s: fast +%d, cold +%d; want one admission", endpoint, query, fast, cold)
		}
		n, err := strconv.Atoi(resp.Header.Get("X-Backbone-Rescored"))
		if err != nil {
			t.Fatalf("X-Backbone-Rescored %q: %v", resp.Header.Get("X-Backbone-Rescored"), err)
		}
		return reply{fast: fast == 1, cache: resp.Header.Get("X-Backbone-Cache"), rescored: n, body: raw}
	}
	lane := func(fast bool) string {
		if fast {
			return "fast"
		}
		return "cold"
	}
	expect := func(name string, r reply, fast bool, cache string) {
		t.Helper()
		if r.fast != fast || r.cache != cache {
			t.Errorf("%s: %s/%s, want %s/%s", name, lane(r.fast), r.cache, lane(fast), cache)
		}
	}

	for _, method := range []string{"mst", "ds"} {
		if method == "ds" {
			read("score", "method=ds")
		}
		miss := read("backbone", "method="+method)
		expect(method+" first read", miss, false, "miss")
		hit := read("backbone", "method="+method)
		expect(method+" repeat", hit, true, "hit")
		status, want := postBody(t, ts.URL+"/backbone?method="+method, base)
		if status != http.StatusOK {
			t.Fatalf("stateless %s: status %d: %s", method, status, want)
		}
		if !bytes.Equal(hit.body, miss.body) || !bytes.Equal(hit.body, want) {
			t.Errorf("%s: hit reply differs from its miss reply or from stateless /backbone", method)
		}
	}

	read("backbone", "method=nc")
	read("backbone", "method=df")
	oracle := newSessionOracle(g)
	w := 7.0
	ups := []wireUpdate{{Src: g.Label(0), Dst: g.Label(1), Weight: &w}}
	c.mustUpdate(ups)
	oracle.apply(ups)
	m := len(oracle.state)

	nc := read("backbone", "method=nc")
	expect("nc after update", nc, false, "miss")
	if nc.rescored != m {
		t.Errorf("nc after update rescored %d of %d rows; want all", nc.rescored, m)
	}
	df := read("backbone", "method=df")
	expect("df after update", df, true, "miss")
	if df.rescored == 0 || df.rescored >= m {
		t.Errorf("df after update rescored %d of %d rows; want a strict non-empty subset", df.rescored, m)
	}
	expect("mst after update", read("backbone", "method=mst"), false, "miss")
}

// TestSessionValidation covers the caller-mistake surface: malformed
// IDs, unknown sessions, unknown node labels, empty and invalid update
// batches — and that a failed batch leaves the session untouched.
func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	g := testGraph(t, 60)
	c := openSession(t, ts.URL, encodeGraph(t, g, "csv"))

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := get("/session/not-a-session-id/backbone"); s != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d", s)
	}
	ghost := strings.Repeat("ab", 32) + ".00000000"
	if s := get("/session/" + ghost + "/backbone"); s != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", s)
	}

	w := 5.0
	neg := -1.0
	cases := []struct {
		name string
		ups  []wireUpdate
		want int
	}{
		{"unknown src", []wireUpdate{{Src: "nope", Dst: g.Label(0), Weight: &w}}, http.StatusBadRequest},
		{"unknown dst", []wireUpdate{{Src: g.Label(0), Dst: "nope", Weight: &w}}, http.StatusBadRequest},
		{"self loop", []wireUpdate{{Src: g.Label(0), Dst: g.Label(0), Weight: &w}}, http.StatusBadRequest},
		{"negative weight", []wireUpdate{{Src: g.Label(0), Dst: g.Label(1), Weight: &neg}}, http.StatusBadRequest},
		{"empty batch", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := c.update(tc.ups)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, raw, tc.want)
		}
	}

	// The failed batches must not have perturbed the session: a read
	// still answers exactly the original body's backbone.
	resp, got := c.get("backbone", "method=df")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after failed updates: %d", resp.StatusCode)
	}
	status, want := postBody(t, ts.URL+"/backbone?method=df", encodeGraph(t, g, "csv"))
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("session diverged after rejected updates")
	}
}

// TestSessionEvictionAndCounters: the -max-sessions LRU bound evicts
// the oldest session, and /statsz exposes the session counters the
// tentpole requires (delta invalidations included).
func TestSessionEvictionAndCounters(t *testing.T) {
	s := newServer(serverConfig{
		workers: 2, timeout: 10 * time.Second, maxBody: 1 << 24,
		graphCacheBytes: 64 << 20, scoreCacheBytes: 64 << 20,
		maxSessions: 2, logf: t.Logf,
	})
	ts := newHTTPTestServer(t, s)

	g := testGraph(t, 80)
	first := openSession(t, ts, encodeGraph(t, g, "csv"))
	// Touch a table so the later update invalidates it.
	if resp, raw := first.get("backbone", "method=df"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first read: %d: %s", resp.StatusCode, raw)
	}
	w := 3.0
	first.mustUpdate([]wireUpdate{{Src: g.Label(0), Dst: g.Label(2), Weight: &w}})
	if resp, _ := first.get("backbone", "method=df"); resp.StatusCode != http.StatusOK {
		t.Fatalf("read after update: %d", resp.StatusCode)
	}

	second := openSession(t, ts, encodeGraph(t, testGraph(t, 40), "csv"))
	_ = second
	third := openSession(t, ts, encodeGraph(t, testGraph(t, 20), "csv"))
	_ = third
	// Capacity 2: the third create evicted the least recently used
	// session (the first — the other two were created after its last
	// touch).
	if resp, _ := first.get("backbone", "method=df"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still answers: %d", resp.StatusCode)
	}

	resp, err := http.Get(ts + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sessions struct {
			Active             int    `json:"active"`
			Creates            uint64 `json:"creates"`
			Updates            uint64 `json:"updates"`
			Reads              uint64 `json:"reads"`
			Evictions          uint64 `json:"evictions"`
			DeltaInvalidations uint64 `json:"delta_invalidations"`
			RescoredRows       uint64 `json:"rescored_rows"`
			FullRescores       uint64 `json:"full_rescores"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ss := stats.Sessions
	if ss.Active != 2 || ss.Creates != 3 || ss.Evictions != 1 {
		t.Errorf("sessions gauge wrong: %+v", ss)
	}
	if ss.Updates != 1 || ss.Reads < 2 {
		t.Errorf("session traffic counters wrong: %+v", ss)
	}
	if ss.DeltaInvalidations < 1 {
		t.Errorf("update dirtied a scored table but delta_invalidations = %d", ss.DeltaInvalidations)
	}
	if ss.RescoredRows == 0 || ss.FullRescores == 0 {
		t.Errorf("rescore accounting empty: %+v", ss)
	}
}

// newHTTPTestServer starts an httptest server over an existing server
// value (newTestServer builds its own config).
func newHTTPTestServer(t testing.TB, s *server) string {
	t.Helper()
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestSessionDelete: DELETE closes a session; further traffic 404s.
func TestSessionDelete(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	g := testGraph(t, 40)
	c := openSession(t, ts.URL, encodeGraph(t, g, "csv"))

	del := func() int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+c.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := del(); s != http.StatusNoContent {
		t.Fatalf("delete: status %d", s)
	}
	if resp, _ := c.get("backbone", "method=df"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("read after delete: %d", resp.StatusCode)
	}
	if s := del(); s != http.StatusNotFound {
		t.Fatalf("double delete: status %d", s)
	}
}

// promLine matches one exposition sample: name, optional labels, and a
// float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(e[-+][0-9]+)?$`)

// TestMetricszFormat: /metricsz serves valid Prometheus text
// exposition — correct content type, every sample line well-formed and
// preceded by its TYPE header, session counters included.
func TestMetricszFormat(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	g := testGraph(t, 60)
	c := openSession(t, ts.URL, encodeGraph(t, g, "csv"))
	if resp, raw := c.get("backbone", "method=df"); resp.StatusCode != http.StatusOK {
		t.Fatalf("read: %d: %s", resp.StatusCode, raw)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("content type %q, want %q", ct, metricsContentType)
	}
	raw, _ := io.ReadAll(resp.Body)

	typed := map[string]bool{}
	values := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 || (fields[3] != "counter" && fields[3] != "gauge") {
				t.Fatalf("line %d: bad TYPE header %q (only counters and gauges are exposed)", i+1, line)
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !typed[name] {
			t.Fatalf("line %d: sample %q has no preceding TYPE header", i+1, name)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q", i+1, line)
		}
		values[name] += v
	}

	for _, want := range []string{
		"backboned_uptime_seconds", "backboned_requests_total",
		"backboned_cache_hits_total", "backboned_admission_admitted_total",
		"backboned_deadline_violations_total",
		"backboned_sessions_active", "backboned_session_creates_total",
		"backboned_session_delta_invalidations_total",
	} {
		if !typed[want] {
			t.Errorf("metric family %q missing from exposition", want)
		}
	}
	if values["backboned_session_creates_total"] < 1 || values["backboned_sessions_active"] < 1 {
		t.Errorf("session metrics not counting: creates=%v active=%v",
			values["backboned_session_creates_total"], values["backboned_sessions_active"])
	}
	if values["backboned_requests_total"] < 2 {
		t.Errorf("requests_total = %v, want >= 2", values["backboned_requests_total"])
	}
}

// TestSessionFleetPinning: session traffic routes to the creating
// body's rendezvous owner from any peer, and when the owner dies the
// fleet answers 503 — stateful routes never degrade to a peer without
// the delta.
func TestSessionFleetPinning(t *testing.T) {
	h := startFleet(t, 2, nil)
	g := testGraph(t, 120)
	body := encodeGraph(t, g, "csv")
	owner := h.ownerIndex(t, body.Bytes())
	other := 1 - owner

	// Create through the NON-owner: the request must land on the owner.
	c := openSession(t, h.url(other), body)
	// Both peers answer reads with identical bytes (the non-owner
	// forwards to the owner's session state).
	var first []byte
	for _, peer := range []int{owner, other} {
		pc := &sessionClient{t: t, base: h.url(peer), id: c.id}
		resp, raw := pc.get("backbone", "method=df")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("peer %d read: %d: %s", peer, resp.StatusCode, raw)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Fatalf("peers disagree on session read")
		}
	}
	// Updates through the non-owner reach the owner's delta.
	w := 9.0
	pc := &sessionClient{t: t, base: h.url(other), id: c.id}
	pc.mustUpdate([]wireUpdate{{Src: g.Label(0), Dst: g.Label(3), Weight: &w}})
	resp, _ := pc.get("backbone", "method=df")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after forwarded update: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(servedByHeader); got != h.addrs[owner] {
		t.Fatalf("session read served by %q, want owner %q", got, h.addrs[owner])
	}

	// Owner gone: the surviving peer must refuse with 503, not compute
	// a divergent local answer.
	h.kill(owner)
	resp, raw := pc.get("backbone", "method=df")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read with dead owner: status %d (%s), want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	if n := h.servers[other].sessionOwnerMiss.Load(); n == 0 {
		t.Errorf("owner_unavailable counter not incremented")
	}
}

// TestSessionConcurrentChaos hammers one server with concurrent
// session creates, updates, reads and deletes under fault injection —
// the race-detector job runs this; any data race or panic fails it.
func TestSessionConcurrentChaos(t *testing.T) {
	fault, err := resilient.ParseFaultSpec("error=0.1,latency=2ms,latency-rate=0.3")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serverConfig{
		workers: 4, timeout: 10 * time.Second, maxBody: 1 << 24,
		graphCacheBytes: 64 << 20, scoreCacheBytes: 64 << 20,
		maxSessions: 4, fault: fault, logf: func(string, ...any) {},
	})
	ts := newHTTPTestServer(t, s)

	g := testGraph(t, 150)
	body := encodeGraph(t, g, "csv")
	ids := make([]string, 3)
	for i := range ids {
		for {
			resp, err := http.Post(ts+"/session", "text/csv", bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusCreated {
				var out struct {
					Session string `json:"session"`
				}
				if err := json.Unmarshal(raw, &out); err != nil {
					t.Fatal(err)
				}
				ids[i] = out.Session
				break
			}
			// Chaos injected a failure; retry until the create lands.
		}
	}

	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			labels := g.Labels()
			for i := 0; i < 30; i++ {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(4) {
				case 0: // update
					w := float64(rng.Intn(20))
					u, v := rng.Intn(len(labels)), rng.Intn(len(labels))
					if u == v {
						continue
					}
					ub, _ := json.Marshal(map[string]any{"updates": []wireUpdate{
						{Src: labels[u], Dst: labels[v], Weight: &w},
					}})
					resp, err := http.Post(ts+"/session/"+id+"/update", "application/json", bytes.NewReader(ub))
					if err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
						resp.Body.Close()
					}
				case 1, 2: // read
					method := []string{"df", "nc", "nt"}[rng.Intn(3)]
					resp, err := http.Get(ts + "/session/" + id + "/backbone?method=" + method)
					if err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
						resp.Body.Close()
					}
				case 3: // create/evict pressure
					resp, err := http.Post(ts+"/session", "text/csv", bytes.NewReader(body.Bytes()))
					if err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
						resp.Body.Close()
					}
				}
			}
		}(int64(worker))
	}
	wg.Wait()
}

// BenchmarkSessionUpdate measures the end-to-end HTTP cost of one
// session update batch (apply only, no scoring).
func BenchmarkSessionUpdate(b *testing.B) {
	_, ts := newTestServer(b, 4, time.Minute)
	g := testGraph(b, 50_000)
	c := openSession(b, ts.URL, encodeGraph(b, g, "csv"))
	w := 5.0
	ub, _ := json.Marshal(map[string]any{"updates": []wireUpdate{
		{Src: g.Label(0), Dst: g.Label(1), Weight: &w},
	}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/session/"+c.id+"/update", "application/json", bytes.NewReader(ub))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("update: %d", resp.StatusCode)
		}
	}
}

// BenchmarkSessionUpdateRead is the serving-path unit the 25x headline
// compares against cold re-posts: one single-edge update plus one
// incremental backbone read over HTTP.
func BenchmarkSessionUpdateRead(b *testing.B) { benchSessionUpdateReads(b, 1) }

// BenchmarkSessionUpdateReadRepeat is session-live's mix: one
// single-edge update, then three df reads of the same cut. The first
// read carries the table's cut through the row diff; the other two
// repeat it.
func BenchmarkSessionUpdateReadRepeat(b *testing.B) { benchSessionUpdateReads(b, 3) }

// benchSessionUpdateReads times one single-edge update followed by
// reads df backbone reads, over HTTP, on a 50k-edge session.
func benchSessionUpdateReads(b *testing.B, reads int) {
	_, ts := newTestServer(b, 4, time.Minute)
	g := testGraph(b, 50_000)
	c := openSession(b, ts.URL, encodeGraph(b, g, "csv"))
	if resp, raw := c.get("backbone", "method=df"); resp.StatusCode != http.StatusOK {
		b.Fatalf("warm read: %d: %s", resp.StatusCode, raw)
	}
	weights := []float64{3, 5, 7, 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := weights[i%len(weights)]
		ub, _ := json.Marshal(map[string]any{"updates": []wireUpdate{
			{Src: g.Label(0), Dst: g.Label(1), Weight: &w},
		}})
		resp, err := http.Post(ts.URL+"/session/"+c.id+"/update", "application/json", bytes.NewReader(ub))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("update: %d", resp.StatusCode)
		}
		for range reads {
			rresp, err := http.Get(ts.URL + "/session/" + c.id + "/backbone?method=df")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, rresp.Body) //nolint:errcheck // draining
			rresp.Body.Close()
			if rresp.StatusCode != http.StatusOK {
				b.Fatalf("read: %d", rresp.StatusCode)
			}
		}
	}
}
