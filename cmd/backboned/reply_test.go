package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestLabelSeparatorReplies: a label containing the separator of the
// requested csv output is a 400 naming the label, answered before any
// byte of the reply — on /backbone, /score and both session reads —
// while the same request in a format that can carry the label is
// served.
func TestLabelSeparatorReplies(t *testing.T) {
	_, ts := newTestServer(t, 2, time.Minute)
	body := "src\tdst\tweight\na,b\tc\t10\nc\td\t9\nd\te\t8\ne\ta,b\t7\nc\te\t1\n"
	resp, err := http.Post(ts.URL+"/session", "text/tab-separated-values", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var created struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &created); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, raw)
	}
	do := func(method, path string) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if method == http.MethodPost {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/tab-separated-values")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}
	sess := "/session/" + created.Session
	for _, path := range []struct{ method, path string }{
		{http.MethodPost, "/backbone?top=4&outformat=csv"},
		{http.MethodPost, "/score?outformat=csv"},
		{http.MethodGet, sess + "/backbone?top=4"},
		{http.MethodGet, sess + "/score?outformat=csv"},
	} {
		resp, raw := do(path.method, path.path)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "ndjson instead") {
			t.Errorf("%s %s: status %d body %q; want 400 naming the label", path.method, path.path, resp.StatusCode, raw)
		}
		if h := resp.Header.Get("X-Backbone-Edges"); h != "" {
			t.Errorf("%s %s: refused reply still carries X-Backbone-Edges %s", path.method, path.path, h)
		}
		ok := strings.Replace(path.path, "outformat=csv", "outformat=tsv", 1)
		if !strings.Contains(ok, "outformat") {
			ok += "&outformat=ndjson"
		}
		resp, raw = do(path.method, ok)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "a,b") {
			t.Errorf("%s %s: status %d body %q; want the label served", path.method, ok, resp.StatusCode, raw)
		}
	}
}

// discardReply is a reusable http.ResponseWriter that drops the body.
type discardReply struct {
	h      http.Header
	status int
	n      int
}

func (d *discardReply) Header() http.Header { return d.h }
func (d *discardReply) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardReply) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.n += len(p)
	return len(p), nil
}

// TestSessionReadAllocsFlat: a session read's allocations do not grow
// with the number of edges it keeps. The reply is written straight off
// the session's graph, so reading df's cut and a top-k cut ten times
// its size allocate the same handful of objects.
func TestSessionReadAllocsFlat(t *testing.T) {
	s, ts := newTestServer(t, 2, time.Minute)
	// Heavy-tailed integral weights, so df keeps a few percent of the
	// edges, as it does of count data.
	rng := rand.New(rand.NewSource(5))
	b := repro.NewBuilder(false)
	for i := 0; i < 40_000; i++ {
		u, v := rng.Intn(8000), rng.Intn(8000)
		if u == v {
			continue
		}
		w := math.Ceil(math.Exp(1.5 * rng.NormFloat64()))
		if err := b.AddEdgeLabels(fmt.Sprintf("n%d", u), fmt.Sprintf("n%d", v), w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	c := openSession(t, ts.URL, encodeGraph(t, g, "csv"))
	read := func(query string) (allocs, bytes float64, kept int) {
		t.Helper()
		w := &discardReply{h: http.Header{}}
		run := func() {
			clear(w.h)
			w.status, w.n = 0, 0
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/session/"+c.id+"/backbone?"+query, nil))
		}
		run() // warm the method's table
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", query, w.status)
		}
		kept, _ = strconv.Atoi(w.h.Get("X-Backbone-Edges"))
		allocs = testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20, kept
	}
	small, _, kept := read("method=df")
	if kept == 0 || 10*kept > g.NumEdges() {
		t.Fatalf("df kept %d of %d edges; the test needs a cut a tenth of the graph or less", kept, g.NumEdges())
	}
	same, sameBytes, _ := read("method=df&top=" + strconv.Itoa(kept))
	large, largeBytes, keptLarge := read("method=df&top=" + strconv.Itoa(10*kept))
	if keptLarge != 10*kept {
		t.Fatalf("top=%d kept %d edges", 10*kept, keptLarge)
	}
	t.Logf("allocs per read: df %v and top %v at %d kept edges, top %v at %d", small, same, kept, large, keptLarge)
	// The top= reads allocate a constant few more than df's: the query
	// key, its option, and the ranking's id and mask scratch.
	// (The race detector's sync.Pool drops add a few either way.)
	if d := large - same; d > 4 || d < -4 {
		t.Errorf("top-k allocs per read: %v at %d kept edges but %v at %d; want them within 4", same, kept, large, keptLarge)
	}
	if d := large - small; d > 12 || d < -12 {
		t.Errorf("allocs per read: df %v at %d kept edges but top %v at %d; want them within 12", small, kept, large, keptLarge)
	}
	// What does grow is the id list, four bytes a kept edge; a backbone
	// graph would cost ten times that.
	if perEdge := (largeBytes - sameBytes) / float64(keptLarge-kept); perEdge > 8 {
		t.Errorf("bytes per read grow by %.1f a kept edge (%v at %d, %v at %d); want at most 8", perEdge, sameBytes, kept, largeBytes, keptLarge)
	}
}
