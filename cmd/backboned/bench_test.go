package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchDaemon measures end-to-end /backbone latency through the full
// HTTP stack: cold (every body unique — parse + score every time)
// versus cache-hit (identical bodies — straight to the cut, asserted
// via the X-Backbone-Cache header).
func benchDaemon(b *testing.B, query string, unique bool) {
	s := newServer(serverConfig{
		workers: 4, timeout: time.Minute, maxBody: 1 << 28,
		graphCacheBytes: 256 << 20, scoreCacheBytes: 256 << 20,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	base := encodeGraph(b, testGraph(b, 20_000), "csv").Bytes()
	url := ts.URL + "/backbone?" + query
	post := func(body []byte, wantHit bool) {
		resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Backbone-Cache"); wantHit && got != "hit" {
			b.Fatalf("X-Backbone-Cache = %q, want hit", got)
		}
	}
	post(base, false) // warm: the cache-hit benchmarks measure pure hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := base
		if unique {
			// A distinct trailing comment changes the content hash while
			// parsing cost stays identical.
			body = append(bytes.Clone(base), fmt.Sprintf("# req %d\n", i)...)
		}
		post(body, !unique)
	}
}

func BenchmarkDaemonBackboneCold(b *testing.B)     { benchDaemon(b, "method=nc&delta=1.64", true) }
func BenchmarkDaemonBackboneCacheHit(b *testing.B) { benchDaemon(b, "method=nc&delta=1.64", false) }

// BenchmarkDaemonBackboneExtractHit is the cache hit of a method whose
// cut runs its extractor (mst): the warm-up request extracts once and
// every measured request reads the cached extraction.
func BenchmarkDaemonBackboneExtractHit(b *testing.B) { benchDaemon(b, "method=mst", false) }

// benchDaemonColdGraph measures a request that must re-resolve its
// graph every time (both LRU caches disabled — the perpetual-cold-miss
// regime of bodies larger than any budget). With graphdir the body's
// pre-converted .bbg is memory-mapped once and every request reuses
// the mapping; without it every request re-parses the text body. The
// pair quantifies what -graphdir buys a cache-starved daemon.
func benchDaemonColdGraph(b *testing.B, graphdir bool) {
	cfg := serverConfig{
		workers: 4, timeout: time.Minute, maxBody: 1 << 28,
		graphCacheBytes: 0, scoreCacheBytes: 0,
	}
	base := encodeGraph(b, testGraph(b, 20_000), "csv").Bytes()
	if graphdir {
		cfg.graphDir = b.TempDir()
		convertBody(b, cfg.graphDir, base, false)
	}
	s := newServer(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	url := ts.URL + "/backbone?method=nc&delta=1.64"
	post := func() {
		resp, err := http.Post(url, "text/csv", bytes.NewReader(base))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm: the mapped graph loads once, outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

func BenchmarkDaemonBackboneGraphdir(b *testing.B) { benchDaemonColdGraph(b, true) }
func BenchmarkDaemonBackboneReparse(b *testing.B)  { benchDaemonColdGraph(b, false) }

// BenchmarkDaemonEvaluateCacheHit measures a full multi-method
// /evaluate report served from the content-addressed score cache: the
// warm-up request scores every method once, every measured request
// re-grades the identical body with zero scoring (asserted via the
// X-Backbone-Cache header).
func BenchmarkDaemonEvaluateCacheHit(b *testing.B) {
	s := newServer(serverConfig{
		workers: 4, timeout: time.Minute, maxBody: 1 << 28,
		graphCacheBytes: 256 << 20, scoreCacheBytes: 256 << 20,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := encodeGraph(b, testGraph(b, 20_000), "csv").Bytes()
	url := ts.URL + "/evaluate?methods=nc,df,nt,mst"
	post := func(wantCache string) {
		resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Backbone-Cache"); wantCache != "" && got != wantCache {
			b.Fatalf("X-Backbone-Cache = %q, want %q", got, wantCache)
		}
	}
	post("miss") // warm: every measured request is a pure cache hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("hit")
	}
}
