package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestScorePruningIs400: asking a score endpoint to prune is a caller
// mistake, so POST /score and GET /session/{id}/score both answer 400
// with the pipeline's own message — the README failure-semantics
// table's status for a bad parameter.
func TestScorePruningIs400(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	g := testGraph(t, 60)

	for _, q := range []string{"method=nc&top=5", "method=df&frac=0.5"} {
		resp, err := http.Post(ts.URL+"/score?"+q, "text/csv", encodeGraph(t, g, "csv"))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "Score returns the full table") {
			t.Errorf("POST /score?%s: %d %s, want 400 naming the full-table rule", q, resp.StatusCode, raw)
		}
	}

	c := openSession(t, ts.URL, encodeGraph(t, g, "csv"))
	for _, q := range []string{"method=nc&top=5", "method=df&frac=0.5"} {
		resp, raw := c.get("score", q)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "Score returns the full table") {
			t.Errorf("GET /session/{id}/score?%s: %d %s, want 400 naming the full-table rule", q, resp.StatusCode, raw)
		}
	}
}
