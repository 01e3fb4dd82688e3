package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

// TestScoreNamesRegistryMethod: POST /score and GET /session/{id}/score
// name the registry method the request selected, in the header and in
// the JSON body — nt rather than its scorer's own name, and nc even
// after an earlier request with the deprecated parallel=1 filled the
// score cache (or the session's table) for the same body.
func TestScoreNamesRegistryMethod(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)
	body := encodeGraph(t, testGraph(t, 60), "csv").Bytes()
	cases := []struct{ query, want string }{
		{"method=nt&response=json", "nt"},
		{"method=nc&parallel=1&response=json", "nc"},
		{"method=nc&response=json", "nc"},
	}
	check := func(endpoint string, resp *http.Response, raw []byte, query, want string) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s?%s: status %d: %s", endpoint, query, resp.StatusCode, raw)
		}
		var out struct {
			Method string `json:"method"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s?%s: %v", endpoint, query, err)
		}
		if got := resp.Header.Get("X-Backbone-Method"); got != want || out.Method != want {
			t.Errorf("%s?%s: X-Backbone-Method %q, JSON method %q; want %q", endpoint, query, got, out.Method, want)
		}
	}

	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/score?"+tc.query, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		check("POST /score", resp, raw, tc.query, tc.want)
	}

	c := openSession(t, ts.URL, bytes.NewBuffer(body))
	for _, tc := range cases {
		resp, raw := c.get("score", tc.query)
		check("GET /session/{id}/score", resp, raw, tc.query, tc.want)
	}
}
