package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/filter"
	"repro/internal/graph"
)

// slowScorer is a deliberately slow RangeScorer: every scored range
// sleeps, so a few thousand edges take seconds and cancellation can be
// observed deterministically mid-run.
type slowScorer struct{ delay time.Duration }

func (s slowScorer) Name() string { return "slowtest" }

func (s slowScorer) NewTable(g *graph.Graph) (*filter.Scores, error) {
	return &filter.Scores{G: g, Score: make([]float64, g.NumEdges()), Method: "slowtest"}, nil
}

func (s slowScorer) ScoreEdges(sc *filter.Scores, lo, hi int) {
	time.Sleep(s.delay)
	for i := lo; i < hi; i++ {
		sc.Score[i] = sc.G.Edge(i).Weight
	}
}

func (s slowScorer) Scores(g *graph.Graph) (*filter.Scores, error) { return filter.Serial(s, g) }

// panicScorer panics mid-request: the worker-pool slot-leak regression
// test needs a handler that dies between acquire and release.
type panicScorer struct{}

func (panicScorer) Name() string { return "panictest" }

func (panicScorer) Scores(g *graph.Graph) (*filter.Scores, error) {
	panic("deliberate panictest panic")
}

func TestMain(m *testing.M) {
	// Shrink the checkpoint so cancellation tests observe worker
	// checkpoints on small graphs, and register the slow method.
	filter.Checkpoint = 8
	filter.MustRegister(&filter.Method{
		Name:   "slowtest",
		Title:  "Slow Test Method",
		Desc:   "test-only scorer that sleeps per checkpoint range",
		Order:  999,
		Scorer: slowScorer{delay: 10 * time.Millisecond},
		Cut:    func(filter.Params) float64 { return 0 },
	})
	filter.MustRegister(&filter.Method{
		Name:   "panictest",
		Title:  "Panic Test Method",
		Desc:   "test-only scorer that panics mid-request",
		Order:  998,
		Scorer: panicScorer{},
		Cut:    func(filter.Params) float64 { return 0 },
	})
	os.Exit(m.Run())
}

// testGraph builds a reproducible random graph with m edges.
func testGraph(t testing.TB, m int) *repro.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	n := m/4 + 2
	b := repro.NewBuilder(false)
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdgeLabels(fmt.Sprintf("n%d", u), fmt.Sprintf("n%d", v), 1+rng.Float64()*20); err != nil {
			t.Fatal(err)
		}
		added++
	}
	return b.Build()
}

func encodeGraph(t testing.TB, g *repro.Graph, format string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := repro.WriteGraph(&buf, g, repro.WithFormat(format)); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func newTestServer(t testing.TB, workers int, timeout time.Duration) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(serverConfig{
		workers: workers, timeout: timeout, maxBody: 1 << 24,
		graphCacheBytes: 64 << 20, scoreCacheBytes: 64 << 20,
		logf: t.Logf,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestMethodsEndpoint: GET /methods serves the registry schema.
func TestMethodsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	resp, err := http.Get(ts.URL + "/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var methods []methodJSON
	if err := json.NewDecoder(resp.Body).Decode(&methods); err != nil {
		t.Fatal(err)
	}
	byName := map[string]methodJSON{}
	for _, m := range methods {
		byName[m.Name] = m
	}
	nc, ok := byName["nc"]
	if !ok {
		t.Fatalf("nc missing from %v", methods)
	}
	if !nc.CanScore || !nc.Parallel || len(nc.Params) != 1 || nc.Params[0].Name != "delta" {
		t.Errorf("nc schema wrong: %+v", nc)
	}
	if mst := byName["mst"]; mst.CanScore || !mst.FixedSize {
		t.Errorf("mst schema wrong: %+v", byName["mst"])
	}
}

// TestBackboneEndToEndNDJSON: POST an ndjson edge list, get the same
// backbone the library computes, as ndjson.
func TestBackboneEndToEndNDJSON(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	g := testGraph(t, 400)
	want, err := repro.Backbone(g, repro.WithMethod("nt"), repro.WithWeightThreshold(15))
	if err != nil {
		t.Fatal(err)
	}

	body := encodeGraph(t, g, "ndjson")
	resp, err := http.Post(ts.URL+"/backbone?method=nt&threshold=15&outformat=ndjson", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Backbone-Method"); got != "nt" {
		t.Errorf("X-Backbone-Method = %q", got)
	}
	got, err := repro.ReadGraph(resp.Body, repro.WithFormat("ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.Backbone.NumEdges() {
		t.Errorf("backbone has %d edges, want %d", got.NumEdges(), want.Backbone.NumEdges())
	}
	if got.NumEdges() == 0 || got.NumEdges() == g.NumEdges() {
		t.Errorf("degenerate backbone: %d of %d edges", got.NumEdges(), g.NumEdges())
	}
}

// TestBackboneJSONResponseAndEnvelope: the JSON envelope carries
// method+params+edges; response=json returns the metadata document.
func TestBackboneJSONResponseAndEnvelope(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	env := map[string]any{
		"method": "df",
		"params": map[string]float64{"alpha": 0.2},
		"edges": []map[string]any{
			{"src": "a", "dst": "b", "weight": 30},
			{"src": "a", "dst": "c", "weight": 1},
			{"src": "b", "dst": "c", "weight": 25},
			{"src": 7, "dst": "b", "weight": 2},
		},
	}
	body, _ := json.Marshal(env)
	resp, err := http.Post(ts.URL+"/backbone?response=json", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out struct {
		Method     string             `json:"method"`
		Params     map[string]float64 `json:"params"`
		InputEdges int                `json:"input_edges"`
		Backbone   []edgeJSON         `json:"backbone"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Method != "df" || out.Params["alpha"] != 0.2 || out.InputEdges != 4 {
		t.Errorf("unexpected response: %+v", out)
	}
}

// TestScoreEndpoint: POST /score returns the per-edge table with a
// score column.
func TestScoreEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	g := testGraph(t, 100)
	resp, err := http.Post(ts.URL+"/score?method=nc&response=json", "text/csv", encodeGraph(t, g, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out struct {
		Method string     `json:"method"`
		Scores []edgeJSON `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Method != "nc" || len(out.Scores) != g.NumEdges() {
		t.Errorf("got %d scores from %q, want %d from nc", len(out.Scores), out.Method, g.NumEdges())
	}
}

// TestScoreRowsCarryEveryScore: /score and /session/{id}/score encode
// every row with its score field — an HSS salience of 0 included — and
// a non-finite score (nc-binomial's underflowed p-value) as null, in
// both JSON shapes, so the reply always holds X-Backbone-Edges rows.
func TestScoreRowsCarryEveryScore(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	cases := []struct {
		method, body string
		want         map[string]string // "src-dst" -> raw JSON score
	}{
		{"hss", "a,b,10\nb,c,10\na,c,0.001\n", map[string]string{"a-c": "0"}},
		{"nc-binomial", "a,b,100000\na,c,1\nb,c,1\nc,d,1\nd,a,1\n", map[string]string{"a-b": "null"}},
	}
	for _, tc := range cases {
		sess := openSession(t, ts.URL, bytes.NewBufferString(tc.body))
		defer sess.close()
		for _, endpoint := range []string{"stateless", "session"} {
			for _, shape := range []string{"response=json", "outformat=ndjson"} {
				query := "method=" + tc.method + "&" + shape
				var resp *http.Response
				var raw []byte
				if endpoint == "session" {
					resp, raw = sess.get("score", query)
				} else {
					var err error
					resp, err = http.Post(ts.URL+"/score?"+query, "text/csv", strings.NewReader(tc.body))
					if err != nil {
						t.Fatal(err)
					}
					raw, _ = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				name := tc.method + " " + endpoint + " " + shape
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, resp.StatusCode, raw)
				}
				var rows []map[string]json.RawMessage
				if shape == "response=json" {
					var doc struct {
						Scores []map[string]json.RawMessage `json:"scores"`
					}
					if err := json.Unmarshal(raw, &doc); err != nil {
						t.Fatalf("%s: %v in %q", name, err, raw)
					}
					rows = doc.Scores
				} else {
					for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
						var row map[string]json.RawMessage
						if err := json.Unmarshal([]byte(line), &row); err != nil {
							t.Fatalf("%s: %v in %q", name, err, line)
						}
						rows = append(rows, row)
					}
				}
				if n := resp.Header.Get("X-Backbone-Edges"); n != strconv.Itoa(len(rows)) {
					t.Errorf("%s: X-Backbone-Edges %s but %d rows", name, n, len(rows))
				}
				seen := 0
				for _, row := range rows {
					score, ok := row["score"]
					if !ok {
						t.Errorf("%s: row without score: %v", name, row)
						continue
					}
					var src, dst string
					if err := json.Unmarshal(row["src"], &src); err != nil {
						t.Fatalf("%s: src: %v", name, err)
					}
					if err := json.Unmarshal(row["dst"], &dst); err != nil {
						t.Fatalf("%s: dst: %v", name, err)
					}
					if want, ok := tc.want[src+"-"+dst]; ok {
						seen++
						if string(score) != want {
							t.Errorf("%s: %s-%s score %s, want %s", name, src, dst, score, want)
						}
					}
				}
				if seen != len(tc.want) {
					t.Errorf("%s: found %d of the %d checked rows", name, seen, len(tc.want))
				}
			}
		}
	}
}

// TestBadRequests: caller mistakes map to 400 with a JSON error body.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	edgeList := "a,b,1\nb,c,2\n"
	cases := []struct {
		name, url, body, ct string
	}{
		{"unknown method", "/backbone?method=bogus", edgeList, "text/csv"},
		{"unknown param", "/backbone?method=nc&alpha=0.1", edgeList, "text/csv"},
		{"bad param value", "/backbone?method=nc&delta=abc", edgeList, "text/csv"},
		{"topk on mst", "/backbone?method=mst&top=5", edgeList, "text/csv"},
		{"unknown format", "/backbone?format=parquet", edgeList, "text/csv"},
		{"unknown outformat", "/backbone?outformat=parquet", edgeList, "text/csv"},
		{"score on mst", "/score?method=mst", edgeList, "text/csv"},
		{"malformed body", "/backbone", "a,b\n", "text/csv"},
		{"empty envelope", "/backbone", "{}", "application/json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.url, c.ct, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				msg, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, msg)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Errorf("error body not JSON: %v %v", e, err)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/backbone"); err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /backbone: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestRequestCancellationStopsScoring: a client that disconnects
// mid-run cancels the request context, and the in-flight scoring loop
// observes context.Canceled at its next checkpoint — long before the
// full (deliberately slow) run would have completed.
func TestRequestCancellationStopsScoring(t *testing.T) {
	s, ts := newTestServer(t, 2, time.Minute)
	errc := make(chan error, 8)
	s.onError = func(status int, err error) {
		if status == statusClientClosedRequest {
			errc <- err
		}
	}
	// 4096 edges at checkpoint 8 and 10ms per range = ~5s of scoring.
	g := testGraph(t, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/backbone?method=slowtest", encodeGraph(t, g, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")

	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	time.Sleep(150 * time.Millisecond) // let scoring start
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("handler error = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("cancellation took %v to reach the scoring loop", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("handler never observed the cancelled request context")
	}
	<-done
}

// TestRequestTimeout504: the per-request timeout expires mid-run and
// maps to 504 Gateway Timeout.
func TestRequestTimeout504(t *testing.T) {
	_, ts := newTestServer(t, 2, 200*time.Millisecond)
	g := testGraph(t, 4096)
	resp, err := http.Post(ts.URL+"/backbone?method=slowtest", "text/csv", encodeGraph(t, g, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}

// TestWorkerPoolSaturation: with the only worker slot occupied by a
// slow run, a second request gives up waiting for admission when its
// context expires, and the server records 503 for it.
func TestWorkerPoolSaturation(t *testing.T) {
	s, ts := newTestServer(t, 1, 2*time.Second)
	saturated := make(chan struct{}, 8)
	s.onError = func(status int, err error) {
		if status == http.StatusServiceUnavailable {
			saturated <- struct{}{}
		}
	}
	g := testGraph(t, 4096) // ~5s of slowtest scoring, capped by the 2s timeout
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/backbone?method=slowtest", "text/csv", encodeGraph(t, g, "csv"))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(200 * time.Millisecond) // first request holds the only slot
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/backbone?method=nt", strings.NewReader("a,b,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The client may still read the 503 before its deadline fires.
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("status %d, want 503", resp.StatusCode)
		} else if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("503 Retry-After = %q, want \"1\" so clients and fleet peers back off", ra)
		}
		resp.Body.Close()
	}
	select {
	case <-saturated:
	case <-time.After(2 * time.Second):
		t.Error("server never recorded a 503 for the queued request")
	}
	wg.Wait()
}

// TestConcurrentRequests hammers the bounded pool from many clients at
// once — the race-enabled CI job runs this to shake out data races in
// the worker pool and the shared registry.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, 4, 10*time.Second)
	g := testGraph(t, 800)
	want, err := repro.Backbone(g, repro.WithMethod("nc"), repro.WithTopK(100))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			method := []string{"nc", "df", "nt"}[i%3]
			url := fmt.Sprintf("%s/backbone?method=%s&top=100&parallel=1", ts.URL, method)
			resp, err := http.Post(url, "text/csv", encodeGraph(t, g, "csv"))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, msg)
				return
			}
			bb, err := repro.ReadGraph(resp.Body)
			if err != nil {
				errs <- fmt.Errorf("request %d: parse response: %v", i, err)
				return
			}
			if bb.NumEdges() != want.Backbone.NumEdges() {
				errs <- fmt.Errorf("request %d (%s): %d edges, want %d", i, method, bb.NumEdges(), want.Backbone.NumEdges())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// statszSnapshot decodes GET /statsz.
type statszSnapshot struct {
	Requests   uint64 `json:"requests"`
	Draining   bool   `json:"draining"`
	GraphCache struct {
		Hits, Misses, Coalesced, Evictions uint64
		Entries                            int
		Bytes                              int64 `json:"bytes"`
	} `json:"graph_cache"`
	ScoreCache struct {
		Hits, Misses, Coalesced, Evictions uint64
		Entries                            int
		Bytes                              int64 `json:"bytes"`
	} `json:"score_cache"`
	Evaluate struct {
		Requests   uint64 `json:"requests"`
		CacheSkips uint64 `json:"cache_skips"`
	} `json:"evaluate"`
}

func getStatsz(t testing.TB, url string) statszSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s statszSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheHitOnRepeatedRequest pins the PR-4 acceptance criterion: an
// identical repeated /backbone request skips parsing and scoring
// (X-Backbone-Cache: hit), re-posting the same body with a different
// delta is still a hit, and a different method misses scoring but
// reuses the parsed graph.
func TestCacheHitOnRepeatedRequest(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	g := testGraph(t, 400)
	body := encodeGraph(t, g, "csv").Bytes()

	post := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
		}
		return resp, out
	}

	resp1, out1 := post("/backbone?method=nc&delta=1.64")
	if got := resp1.Header.Get("X-Backbone-Cache"); got != "miss" {
		t.Errorf("first request X-Backbone-Cache = %q, want miss", got)
	}
	resp2, out2 := post("/backbone?method=nc&delta=1.64")
	if got := resp2.Header.Get("X-Backbone-Cache"); got != "hit" {
		t.Errorf("repeat request X-Backbone-Cache = %q, want hit", got)
	}
	if !bytes.Equal(out1, out2) {
		t.Error("cache hit served a different backbone")
	}
	// Different delta: same body, same method — still a score-cache hit.
	resp3, _ := post("/backbone?method=nc&delta=3.5")
	if got := resp3.Header.Get("X-Backbone-Cache"); got != "hit" {
		t.Errorf("different-delta request X-Backbone-Cache = %q, want hit", got)
	}
	// Different method: scoring reruns, but the parsed graph is reused.
	before := getStatsz(t, ts.URL)
	resp4, _ := post("/backbone?method=df")
	if got := resp4.Header.Get("X-Backbone-Cache"); got != "miss" {
		t.Errorf("different-method request X-Backbone-Cache = %q, want miss", got)
	}
	after := getStatsz(t, ts.URL)
	if after.GraphCache.Hits != before.GraphCache.Hits+1 {
		t.Errorf("graph cache hits %d -> %d, want +1 (parsed graph not reused)", before.GraphCache.Hits, after.GraphCache.Hits)
	}
	if after.ScoreCache.Misses != before.ScoreCache.Misses+1 {
		t.Errorf("score cache misses %d -> %d, want +1", before.ScoreCache.Misses, after.ScoreCache.Misses)
	}

	// /score rides the same table cache.
	respScore, err := http.Post(ts.URL+"/score?method=nc", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respScore.Body.Close()
	if got := respScore.Header.Get("X-Backbone-Cache"); got != "hit" {
		t.Errorf("/score after /backbone X-Backbone-Cache = %q, want hit", got)
	}
}

// TestEvaluateEndpoint: POST /evaluate returns the full multi-method
// JSON report — criteria per method, size-matched edge counts, and a
// ranking — with undefined criteria (stability without a second
// snapshot) encoded as explicit nulls, never NaN (the encoding/json
// regression this PR fixes).
func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	g := testGraph(t, 400)
	target := 40
	url := fmt.Sprintf("%s/evaluate?methods=nc,df,nt,mst&top=%d", ts.URL, target)
	resp, err := http.Post(url, "text/csv", encodeGraph(t, g, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Backbone-Eval-Methods"); got != "4" {
		t.Errorf("X-Backbone-Eval-Methods = %q, want 4", got)
	}
	// The raw body must spell out null for the undefined criteria: a NaN
	// would have failed to encode server-side.
	if !bytes.Contains(raw, []byte(`"stability":null`)) {
		t.Errorf("undefined stability not encoded as null: %s", raw)
	}
	rep := &repro.EvalReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if rep.Edges != g.NumEdges() || len(rep.Methods) != 4 || len(rep.Ranking) != 4 {
		t.Fatalf("report shape: edges %d (want %d), %d methods, %d ranked",
			rep.Edges, g.NumEdges(), len(rep.Methods), len(rep.Ranking))
	}
	for _, me := range rep.Methods {
		if me.Err != "" {
			t.Errorf("%s failed: %s", me.Method, me.Err)
			continue
		}
		if me.Method != "mst" && me.Edges != target {
			t.Errorf("%s: %d edges, want size-matched %d", me.Method, me.Edges, target)
		}
		if c := float64(me.Coverage); math.IsNaN(c) || c <= 0 || c > 1 {
			t.Errorf("%s: coverage = %v", me.Method, c)
		}
		if !math.IsNaN(float64(me.Stability)) {
			t.Errorf("%s: stability = %v without a snapshot, want null/NaN", me.Method, me.Stability)
		}
	}
}

// TestEvaluateCacheReuse pins the PR-5 acceptance criterion: once a
// body's score tables are cached, re-evaluating it returns the full
// multi-method report without re-scoring — X-Backbone-Cache: hit, and
// the /statsz evaluate counters record the skipped scoring runs. The
// tables are shared with /backbone, so pre-scoring one method there
// also counts.
func TestEvaluateCacheReuse(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	g := testGraph(t, 400)
	body := encodeGraph(t, g, "csv").Bytes()
	const methods = "nc,df,nt,mst" // three scoring methods + one extract-only

	post := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
		}
		return resp, out
	}

	// Warm one method's table through /backbone: cross-endpoint reuse.
	post("/backbone?method=nc&delta=1.64")

	resp1, _ := post("/evaluate?methods=" + methods)
	if got := resp1.Header.Get("X-Backbone-Cache"); got != "miss" {
		t.Errorf("first /evaluate X-Backbone-Cache = %q, want miss (df and nt still had to score)", got)
	}
	if got := resp1.Header.Get("X-Backbone-Eval-Cached"); got != "1" {
		t.Errorf("first /evaluate X-Backbone-Eval-Cached = %q, want 1 (nc pre-scored via /backbone)", got)
	}

	before := getStatsz(t, ts.URL)
	resp2, raw := post("/evaluate?methods=" + methods)
	if got := resp2.Header.Get("X-Backbone-Cache"); got != "hit" {
		t.Errorf("repeat /evaluate X-Backbone-Cache = %q, want hit", got)
	}
	if got := resp2.Header.Get("X-Backbone-Eval-Scored"); got != "3" {
		t.Errorf("X-Backbone-Eval-Scored = %q, want 3", got)
	}
	if got := resp2.Header.Get("X-Backbone-Eval-Cached"); got != "3" {
		t.Errorf("X-Backbone-Eval-Cached = %q, want 3 (all tables cached)", got)
	}
	rep := &repro.EvalReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Methods) != 4 || rep.ScoredMethods != 3 || rep.CacheHits != 3 {
		t.Errorf("cached report: %d methods, scored %d, cache hits %d; want 4/3/3",
			len(rep.Methods), rep.ScoredMethods, rep.CacheHits)
	}
	for _, me := range rep.Methods {
		if me.Err != "" {
			t.Errorf("cached evaluation lost method %s: %s", me.Method, me.Err)
		}
	}

	after := getStatsz(t, ts.URL)
	if after.Evaluate.Requests != before.Evaluate.Requests+1 {
		t.Errorf("evaluate requests %d -> %d, want +1", before.Evaluate.Requests, after.Evaluate.Requests)
	}
	if after.Evaluate.CacheSkips != before.Evaluate.CacheSkips+3 {
		t.Errorf("evaluate cache skips %d -> %d, want +3 (one per cached table)",
			before.Evaluate.CacheSkips, after.Evaluate.CacheSkips)
	}
	if after.ScoreCache.Misses != before.ScoreCache.Misses {
		t.Errorf("score cache misses %d -> %d: the cached evaluation scored something",
			before.ScoreCache.Misses, after.ScoreCache.Misses)
	}
}

// TestEvaluateLanes: /evaluate is admitted on the fast lane exactly
// when every entry the comparison reads is cached — a scoring method's
// table, a fixed-size method's extraction — so a repeat comparison
// that includes mst rides the fast lane, and ds's cached table does
// not make a comparison that extracts ds fast.
func TestEvaluateLanes(t *testing.T) {
	s, ts := newTestServer(t, 2, 10*time.Second)
	body := encodeGraph(t, testGraph(t, 400), "csv").Bytes()
	post := func(url string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
		}
		return resp.Header.Get("X-Backbone-Cache")
	}
	// lanes posts url and returns how many requests each lane admitted.
	lanes := func(url string) (fast, cold uint64, cache string) {
		t.Helper()
		before := s.limiter.Stats()
		cache = post(url)
		after := s.limiter.Stats()
		return after.Fast.Admitted - before.Fast.Admitted, after.Cold.Admitted - before.Cold.Admitted, cache
	}
	for _, c := range []struct {
		name, warm, url string
		fast, cold      uint64
		cache           string
	}{
		{"repeat with mst", "/evaluate?methods=nc,df,nt,mst", "/evaluate?methods=nc,df,nt,mst", 1, 0, "hit"},
		{"ds table only", "/score?method=ds", "/evaluate?methods=ds", 0, 1, "miss"},
		{"ds extraction cached", "", "/evaluate?methods=ds", 1, 0, "hit"},
	} {
		if c.warm != "" {
			post(c.warm)
		}
		fast, cold, cache := lanes(c.url)
		if fast != c.fast || cold != c.cold || cache != c.cache {
			t.Errorf("%s: fast +%d, cold +%d, X-Backbone-Cache %q; want fast +%d, cold +%d, %q",
				c.name, fast, cold, cache, c.fast, c.cold, c.cache)
		}
	}

	// A fast comparison costs about three /backbone hits, so its
	// latency samples go under a cost key of its own.
	before := s.limiter.Stats().Latency
	if _, _, cache := lanes("/evaluate?methods=nc,df,nt,mst"); cache != "hit" {
		t.Fatalf("all-hit repeat: X-Backbone-Cache %q", cache)
	}
	after := s.limiter.Stats().Latency
	if after["evaluate-cached"].Samples <= before["evaluate-cached"].Samples {
		t.Errorf("fast /evaluate added no sample under cost key evaluate-cached: %+v", after)
	}
	if after["cached"].Samples != before["cached"].Samples {
		t.Errorf("fast /evaluate added a sample under cost key cached: %d -> %d",
			before["cached"].Samples, after["cached"].Samples)
	}
}

// TestBackboneLanes: /backbone admits a request on the fast lane
// exactly when the entry its cut reads — ds's extraction, not its
// table; mst's extraction, whichever endpoint cached it — is in the
// score cache, and answers hit exactly then.
func TestBackboneLanes(t *testing.T) {
	s, ts := newTestServer(t, 2, 10*time.Second)
	bodies := [][]byte{encodeGraph(t, testGraph(t, 400), "csv").Bytes(), encodeGraph(t, testGraph(t, 300), "csv").Bytes()}
	post := func(body []byte, url string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
		}
		return resp.Header.Get("X-Backbone-Cache")
	}
	for _, c := range []struct {
		name      string
		body      int
		warm, url string
		fast      uint64
		cold      uint64
		cache     string
	}{
		{"ds after /score", 0, "/score?method=ds", "/backbone?method=ds", 0, 1, "miss"},
		{"ds repeat", 0, "", "/backbone?method=ds", 1, 0, "hit"},
		{"mst repeat", 0, "/backbone?method=mst", "/backbone?method=mst", 1, 0, "hit"},
		{"mst after /evaluate", 1, "/evaluate?methods=mst", "/backbone?method=mst", 1, 0, "hit"},
	} {
		if c.warm != "" {
			post(bodies[c.body], c.warm)
		}
		before := s.limiter.Stats()
		cache := post(bodies[c.body], c.url)
		after := s.limiter.Stats()
		fast, cold := after.Fast.Admitted-before.Fast.Admitted, after.Cold.Admitted-before.Cold.Admitted
		if fast != c.fast || cold != c.cold || cache != c.cache {
			t.Errorf("%s: fast +%d, cold +%d, X-Backbone-Cache %q; want fast +%d, cold +%d, %q",
				c.name, fast, cold, cache, c.fast, c.cold, c.cache)
		}
	}
}

// TestEvaluateExtractOnlyCache: an extract-only comparison is a cache
// miss the first time and a hit after, its extraction is charged to the
// score cache, and the table counters stay at zero.
func TestEvaluateExtractOnlyCache(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	body := encodeGraph(t, testGraph(t, 400), "csv").Bytes()
	before := getStatsz(t, ts.URL)
	var replies [][]byte
	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Post(ts.URL+"/evaluate?methods=mst", "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		if got := resp.Header.Get("X-Backbone-Cache"); got != want {
			t.Errorf("X-Backbone-Cache = %q, want %q", got, want)
		}
		for _, h := range []string{"X-Backbone-Eval-Scored", "X-Backbone-Eval-Cached"} {
			if got := resp.Header.Get(h); got != "0" {
				t.Errorf("%s = %q, want 0 (mst has no table)", h, got)
			}
		}
		rep := &repro.EvalReport{}
		if err := json.Unmarshal(out, rep); err != nil {
			t.Fatal(err)
		}
		rep.DurationMs, rep.Methods[0].DurationMs = 0, 0
		out, _ = json.Marshal(rep)
		replies = append(replies, out)
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Errorf("cached extraction graded differently:\n%s\n%s", replies[0], replies[1])
	}
	after := getStatsz(t, ts.URL)
	if got := after.ScoreCache.Misses - before.ScoreCache.Misses; got != 1 {
		t.Errorf("score cache misses +%d, want +1 (one extraction)", got)
	}
	if got := after.ScoreCache.Hits - before.ScoreCache.Hits; got != 1 {
		t.Errorf("score cache hits +%d, want +1", got)
	}
	if after.ScoreCache.Bytes <= before.ScoreCache.Bytes {
		t.Errorf("score cache bytes %d -> %d: the extraction is not charged", before.ScoreCache.Bytes, after.ScoreCache.Bytes)
	}
	if after.Evaluate.CacheSkips != before.Evaluate.CacheSkips {
		t.Errorf("evaluate cache skips %d -> %d: they count tables only", before.Evaluate.CacheSkips, after.Evaluate.CacheSkips)
	}
}

// TestEvaluateValidation: /evaluate maps caller mistakes to 400 and
// non-POST to 405, like its sibling endpoints.
func TestEvaluateValidation(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	edgeList := "a,b,1\nb,c,2\n"
	for _, c := range []struct{ name, url string }{
		{"unknown method", "/evaluate?methods=bogus"},
		{"undeclared param", "/evaluate?methods=mst&delta=1"},
		{"bad top", "/evaluate?top=abc"},
		{"bad frac", "/evaluate?frac=2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.url, "text/csv", strings.NewReader(edgeList))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				msg, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, msg)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/evaluate"); err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /evaluate: status %d, want 405", resp.StatusCode)
		}
	}
	// A ride-along parameter declared by a selected method is accepted.
	resp, err := http.Post(ts.URL+"/evaluate?methods=nc,mst&delta=2.0", "text/csv", strings.NewReader(edgeList))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Errorf("declared ride-along param: status %d (%s)", resp.StatusCode, msg)
	}
}

// TestEvaluateQueryAndEnvelopeCompat: /evaluate accepts /backbone's
// singular ?method= spelling (and the no-op ?outformat=), and honors a
// JSON envelope's method/params fields like its sibling endpoints.
func TestEvaluateQueryAndEnvelopeCompat(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	edgeList := "a,b,1\nb,c,2\nc,d,3\n"

	decode := func(resp *http.Response) *repro.EvalReport {
		t.Helper()
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		rep := &repro.EvalReport{}
		if err := json.Unmarshal(raw, rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	resp, err := http.Post(ts.URL+"/evaluate?method=nc&outformat=json", "text/csv", strings.NewReader(edgeList))
	if err != nil {
		t.Fatal(err)
	}
	rep := decode(resp)
	if len(rep.Methods) != 1 || rep.Methods[0].Method != "nc" {
		t.Errorf("?method=nc narrowing: %+v", rep.Methods)
	}

	env := `{"method":"nt","params":{"threshold":1.5},"top":2,"edges":[
		{"src":"a","dst":"b","weight":1},{"src":"b","dst":"c","weight":2},{"src":"c","dst":"d","weight":3}]}`
	resp, err = http.Post(ts.URL+"/evaluate", "application/json", strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	rep = decode(resp)
	if len(rep.Methods) != 1 || rep.Methods[0].Method != "nt" {
		t.Fatalf("envelope method narrowing: %+v", rep.Methods)
	}
	if rep.Methods[0].Params["threshold"] != 1.5 {
		t.Errorf("envelope params lost: %v", rep.Methods[0].Params)
	}
	if rep.TargetEdges != 2 || rep.Methods[0].Edges != 2 {
		t.Errorf("envelope top lost: target %d, edges %d", rep.TargetEdges, rep.Methods[0].Edges)
	}
}

// TestEvaluateTimeout504: the per-request timeout reaches the engine's
// scoring loops — /evaluate shares /backbone's 504 semantics.
func TestEvaluateTimeout504(t *testing.T) {
	_, ts := newTestServer(t, 2, 200*time.Millisecond)
	g := testGraph(t, 4096)
	resp, err := http.Post(ts.URL+"/evaluate?methods=slowtest", "text/csv", encodeGraph(t, g, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}

// TestStatszEndpoint: the counters move as requests come in.
func TestStatszEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	s0 := getStatsz(t, ts.URL)
	if s0.Requests != 0 || s0.GraphCache.Entries != 0 {
		t.Errorf("fresh server statsz = %+v", s0)
	}
	body := "a,b,3\nb,c,1\na,c,2\n"
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/backbone?method=nt&threshold=1.5", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s1 := getStatsz(t, ts.URL)
	if s1.Requests != 3 {
		t.Errorf("requests = %d, want 3", s1.Requests)
	}
	if s1.GraphCache.Entries != 1 || s1.GraphCache.Misses != 1 || s1.GraphCache.Hits != 2 {
		t.Errorf("graph cache = %+v", s1.GraphCache)
	}
	if s1.ScoreCache.Entries != 1 || s1.ScoreCache.Misses != 1 || s1.ScoreCache.Hits != 2 {
		t.Errorf("score cache = %+v", s1.ScoreCache)
	}
	if s1.GraphCache.Bytes <= 0 || s1.ScoreCache.Bytes <= 0 {
		t.Errorf("cache byte accounting missing: %+v", s1)
	}
}

// TestScoreCacheChargesCut: a cached table is charged its columns plus
// the worst case of the threshold cut it remembers, four bytes a row
// for the kept ids and one bit a node for the touched-node bitmap, so
// the score cache's byte budget bounds what a hit keeps resident.
func TestScoreCacheChargesCut(t *testing.T) {
	body := encodeGraph(t, testGraph(t, 400), "csv").Bytes()
	for _, tc := range []struct {
		method   string
		directed bool
	}{
		{"nc", false},
		// hss scores a directed input's undirected view, a graph the
		// table alone holds: the charge covers it too.
		{"hss", true},
	} {
		t.Run(fmt.Sprintf("%s/directed=%v", tc.method, tc.directed), func(t *testing.T) {
			_, ts := newTestServer(t, 2, 5*time.Second)
			g, err := repro.ReadGraph(bytes.NewReader(body), repro.WithDirected(tc.directed))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := repro.Score(g, repro.WithMethod(tc.method))
			if err != nil {
				t.Fatal(err)
			}
			before := getStatsz(t, ts.URL)
			url := fmt.Sprintf("%s/backbone?method=%s&directed=%v", ts.URL, tc.method, tc.directed)
			resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			m, n := int64(sc.G.NumEdges()), int64(sc.G.NumNodes())
			want := 8*m*int64(1+len(sc.Aux)) + 128 + 4*m + (n+63)/64*8
			if tc.directed {
				want += graphCost(sc.G)
			}
			if got := getStatsz(t, ts.URL).ScoreCache.Bytes - before.ScoreCache.Bytes; got != want {
				t.Errorf("score cache bytes +%d for one %s table of %d rows over %d nodes, want +%d", got, tc.method, m, n, want)
			}
		})
	}
}

// TestCacheDisabled: zero cache budgets mean every request is a miss
// but still succeeds.
func TestCacheDisabled(t *testing.T) {
	s := newServer(serverConfig{
		workers: 2, timeout: 5 * time.Second, maxBody: 1 << 24, logf: t.Logf,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := "a,b,3\nb,c,1\na,c,2\n"
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/backbone?method=nt&threshold=1.5", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Backbone-Cache"); got != "miss" {
			t.Errorf("request %d with caches disabled: X-Backbone-Cache = %q", i, got)
		}
	}
}

// TestCacheSingleFlight: concurrent identical slow requests score once
// between them — the daemon's in-flight de-duplication.
func TestCacheSingleFlight(t *testing.T) {
	_, ts := newTestServer(t, 4, time.Minute)
	g := testGraph(t, 256) // 32 slowtest ranges x 10ms ≈ 300ms of scoring
	body := encodeGraph(t, g, "csv").Bytes()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/backbone?method=slowtest", "text/csv", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	st := getStatsz(t, ts.URL)
	if st.ScoreCache.Misses != 1 {
		t.Errorf("score cache misses = %d, want 1 (scoring ran more than once)", st.ScoreCache.Misses)
	}
	if st.ScoreCache.Hits+st.ScoreCache.Coalesced != 3 {
		t.Errorf("hits+coalesced = %d+%d, want 3", st.ScoreCache.Hits, st.ScoreCache.Coalesced)
	}
}

// TestBodyTooLarge: an oversized body maps to 413, not a parse error.
func TestBodyTooLarge(t *testing.T) {
	s := newServer(serverConfig{
		workers: 1, timeout: 5 * time.Second, maxBody: 64, logf: t.Logf,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	big := strings.Repeat("a,b,1\n", 100)
	resp, err := http.Post(ts.URL+"/backbone", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

// TestExtractOnlyScorerMethods pins the PR-4 review fix: ds scores but
// has no threshold rule — its default /backbone run must use its
// extractor (not the cached-table path), while ds with ?top= and
// /score still work through the table.
func TestExtractOnlyScorerMethods(t *testing.T) {
	_, ts := newTestServer(t, 2, 10*time.Second)
	// A graph with enough total support for the Sinkhorn scaling.
	body := "a,b,5\nb,c,4\nc,d,6\nd,a,3\na,c,2\nb,d,7\n"
	for _, url := range []string{"/backbone?method=ds", "/backbone?method=ds&top=3", "/score?method=ds"} {
		resp, err := http.Post(ts.URL+url, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", url, resp.StatusCode, msg)
		}
	}
	// mst stays a plain extractor: /backbone works, /score is 400.
	resp, err := http.Post(ts.URL+"/backbone?method=mst", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mst /backbone: status %d", resp.StatusCode)
	}
}

// TestEnvelopePruningQueryPrecedence: a query ?frac= (or ?top=) wins
// over the envelope's pruning fields on /backbone — without the guard,
// an envelope "top" would silently beat a query ?frac= because the
// pipeline prefers top-k whenever both options are set.
func TestEnvelopePruningQueryPrecedence(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	var edges []map[string]any
	for i := 0; i < 10; i++ {
		edges = append(edges, map[string]any{
			"src": fmt.Sprintf("n%d", i), "dst": fmt.Sprintf("n%d", i+1), "weight": float64(i + 1),
		})
	}
	body, _ := json.Marshal(map[string]any{"method": "nt", "top": 2, "edges": edges})
	resp, err := http.Post(ts.URL+"/backbone?frac=0.5", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if got := resp.Header.Get("X-Backbone-Edges"); got != "5" {
		t.Errorf("query frac=0.5 over envelope top=2: %s edges, want 5 (query must win)", got)
	}
}

// TestScoreValidationPreserved: the cached /score path keeps rejecting
// what ScoreContext rejected — pruning options and undeclared
// envelope parameters.
func TestScoreValidationPreserved(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	edgeList := "a,b,1\nb,c,2\n"

	resp, err := http.Post(ts.URL+"/score?method=nc&top=5", "text/csv", strings.NewReader(edgeList))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/score with top accepted; want error")
	}

	env := `{"method":"nc","params":{"bogus":1},"edges":[{"src":"a","dst":"b","weight":3}]}`
	resp, err = http.Post(ts.URL+"/score", "application/json", strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/score with undeclared envelope param: status %d, want 400", resp.StatusCode)
	}
}

// TestReadyzDrainFlip: /readyz answers 200 until graceful shutdown
// begins, then 503 with a Retry-After — while /healthz stays 200 (the
// process is alive, just leaving) and /statsz reports draining.
func TestReadyzDrainFlip(t *testing.T) {
	s, ts := newTestServer(t, 1, time.Second)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	if resp, body := get("/readyz"); resp.StatusCode != http.StatusOK || body != "ready\n" {
		t.Errorf("before drain: /readyz = %d %q, want 200 ready", resp.StatusCode, body)
	}
	if snap := getStatsz(t, ts.URL); snap.Draining {
		t.Error("before drain: /statsz reports draining")
	}

	s.beginDrain()

	resp, body := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("after drain: /readyz = %d %q, want 503 draining", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("after drain: /readyz Retry-After = %q, want \"1\"", ra)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("after drain: /healthz = %d, want 200 — liveness must not follow readiness", resp.StatusCode)
	}
	if snap := getStatsz(t, ts.URL); !snap.Draining {
		t.Error("after drain: /statsz does not report draining")
	}
}

// TestPanickingHandlerReleasesSlot pins the panic-safety audit of the
// worker pool (acquire's doc comment names this test): a handler that
// panics between acquire and release must still return its slot. With
// a single-slot pool, leaking even one would make every later request
// time out waiting for admission. A session read takes its session's
// lock in resolve, and a panicking read must release that too.
func TestPanickingHandlerReleasesSlot(t *testing.T) {
	s := newServer(serverConfig{
		workers: 1, timeout: time.Second, maxBody: 1 << 24,
		graphCacheBytes: 64 << 20, scoreCacheBytes: 64 << 20,
	})
	ts := httptest.NewUnstartedServer(s)
	// The deliberate panics below are expected noise; net/http prints a
	// stack trace per recovered handler panic.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		// net/http recovers the panic and severs the connection, so the
		// client sees either a transport error or no usable response;
		// all that matters here is that the slot comes back.
		resp, err := http.Post(ts.URL+"/backbone?method=panictest", "text/csv", strings.NewReader("a,b,1\n"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/backbone?method=nt", "text/csv", strings.NewReader("a,b,1\nb,c,2\n"))
		if err != nil {
			t.Fatalf("request %d after panics: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after panics: status %d (%s) — the pool leaked a slot", i, resp.StatusCode, body)
		}
	}

	sc := openSession(t, ts.URL, bytes.NewBufferString("a,b,1\nb,c,2\n"))
	sess := s.getSession(sc.id)
	// A fresh connection per read: the transport silently retries a GET
	// whose reused connection closed without a reply, and that retry
	// would queue behind a leaked lock.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 2; i++ {
		resp, err := client.Get(ts.URL + "/session/" + sc.id + "/backbone?method=panictest")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		// TryLock after each read, not a further read: a lock left held
		// would hang the next read, and the test with it, instead of
		// failing.
		if !sess.mu.TryLock() {
			t.Fatalf("panicking session read %d left its session locked", i)
		}
		sess.mu.Unlock()
	}
	if resp, body := sc.get("backbone", "method=nt"); resp.StatusCode != http.StatusOK {
		t.Fatalf("session read after panics: status %d (%s)", resp.StatusCode, body)
	}
}
