package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/resilient"
)

// The overload e2e suite drives a race-enabled daemon past saturation
// with the open-loop generator (internal/loadgen) and asserts the
// admission path's contract: goodput holds near capacity while excess
// load is shed, no scoring run ever starts past its propagated
// deadline, and cache-hit (fast lane) requests are not starved behind
// cold scoring. The slowtest method gives deterministic cost: with
// filter.Checkpoint = 8 (set in TestMain) a 64-edge body scores in
// exactly 8 ranges x 10ms = 80ms.

// overloadCost is slowtest's per-request scoring cost for the 64-edge
// bodies this suite uses.
const overloadCost = 80 * time.Millisecond

// overloadDuration is the sustained-load window: a quick pass for the
// regular test run, the issue's full 20s soak when OVERLOAD_SMOKE=1
// (the CI overload-smoke job).
func overloadDuration(quick time.Duration) time.Duration {
	if os.Getenv("OVERLOAD_SMOKE") != "" {
		return 20 * time.Second
	}
	return quick
}

// overloadBodies builds n distinct 64-edge CSV bodies (deterministic
// per index) so uniform selection keeps the score caches cold.
func overloadBodies(t testing.TB, n int) [][]byte {
	t.Helper()
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(1000 + int64(i)))
		b := repro.NewBuilder(false)
		nodes := 20
		for added := 0; added < 64; {
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			if u == v {
				continue
			}
			if err := b.AddEdgeLabels(fmt.Sprintf("b%d_%d", i, u), fmt.Sprintf("b%d_%d", i, v), 1+rng.Float64()*20); err != nil {
				t.Fatal(err)
			}
			added++
		}
		var buf bytes.Buffer
		if err := repro.WriteGraph(&buf, b.Build(), repro.WithFormat("csv")); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// admissionStatsz mirrors the /statsz admission section.
type admissionLaneStatsz struct {
	Admitted      uint64 `json:"admitted"`
	Sheds         uint64 `json:"sheds"`
	QueueTimeouts uint64 `json:"queue_timeouts"`
}

type admissionStatsz struct {
	Limit                float64             `json:"limit"`
	ExpiredArrivals      uint64              `json:"expired_arrivals"`
	ExpiredBeforeScoring uint64              `json:"expired_before_scoring"`
	DeadlineViolations   uint64              `json:"deadline_violations"`
	Fast                 admissionLaneStatsz `json:"fast"`
	Cold                 admissionLaneStatsz `json:"cold"`
}

func fetchAdmissionStatsz(t testing.TB, url string) admissionStatsz {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Admission admissionStatsz `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Admission
}

// TestOverloadGoodputAtTwiceCapacity is the issue's headline check:
// offered load at 2x the node's cold-scoring capacity must not
// collapse goodput — completed work stays >= 70% of capacity, the
// excess is shed with computed Retry-After hints, and no scoring run
// starts past its deadline.
func TestOverloadGoodputAtTwiceCapacity(t *testing.T) {
	const workers = 4
	// Caches disabled: every request is cold scoring, so capacity is
	// the cold lane's slots (workers minus the fast-lane reserve) over
	// the deterministic per-request cost.
	s := newServer(serverConfig{
		workers: workers, timeout: 5 * time.Second, maxBody: 1 << 24,
		logf: t.Logf,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	capacity := float64(workers-1) / overloadCost.Seconds()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:      ts.URL,
		Path:     "/backbone",
		Query:    "method=slowtest",
		RPS:      2 * capacity,
		Duration: overloadDuration(4 * time.Second),
		Timeout:  2 * time.Second,
		Bodies:   overloadBodies(t, 32),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("capacity %.1f rps, goodput %.1f rps, outcomes %v", capacity, rep.GoodputRPS, rep.Outcomes)

	if rep.GoodputRPS < 0.7*capacity {
		t.Errorf("goodput %.1f rps under 2x overload, want >= 70%% of %.1f rps capacity", rep.GoodputRPS, capacity)
	}
	if rep.Outcomes[loadgen.Shed] == 0 {
		t.Error("no sheds at 2x capacity — admission is not protecting the node")
	}
	if rep.Outcomes[loadgen.Errored] > 0 {
		t.Errorf("%d hard errors under overload (shed/expire are the only acceptable refusals)", rep.Outcomes[loadgen.Errored])
	}
	if rep.RetryAfterCount != rep.Outcomes[loadgen.Shed] {
		t.Errorf("%d of %d shed responses carried Retry-After", rep.RetryAfterCount, rep.Outcomes[loadgen.Shed])
	}
	ast := fetchAdmissionStatsz(t, ts.URL)
	if ast.DeadlineViolations != 0 {
		t.Errorf("deadline_violations = %d, want 0 (scoring started past its deadline)", ast.DeadlineViolations)
	}
	if ast.Cold.Sheds == 0 {
		t.Errorf("admission stats show no cold-lane sheds: %+v", ast)
	}
}

// TestOverloadExpiredBudgetNeverScored: a request whose propagated
// budget is already spent is refused at the front door — 504, counted,
// and no scoring (not even a cache fill) happens on its behalf.
func TestOverloadExpiredBudgetNeverScored(t *testing.T) {
	s, ts := newTestServer(t, 2, 5*time.Second)
	body := encodeGraph(t, testGraph(t, 64), "csv")

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/backbone?method=slowtest", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("X-Backbone-Deadline", "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d for pre-expired budget, want 504", resp.StatusCode)
	}
	if n := s.scores.Stats().Entries; n != 0 {
		t.Errorf("score cache has %d entries after a pre-expired request, want 0 (nothing may be scored)", n)
	}
	ast := fetchAdmissionStatsz(t, ts.URL)
	if ast.ExpiredArrivals != 1 {
		t.Errorf("expired_arrivals = %d, want 1", ast.ExpiredArrivals)
	}
	if ast.DeadlineViolations != 0 {
		t.Errorf("deadline_violations = %d, want 0", ast.DeadlineViolations)
	}
}

// TestOverloadFastLaneNotStarved: a body whose score table is cached
// rides the fast lane; with the cold lane saturated at 2x capacity its
// latency must stay within 3x the unloaded p99 (floored against CI
// scheduling noise), nowhere near the cold queue's ~800ms wait.
func TestOverloadFastLaneNotStarved(t *testing.T) {
	const workers = 4
	s := newServer(serverConfig{
		workers: workers, timeout: 5 * time.Second, maxBody: 1 << 24,
		graphCacheBytes: 64 << 20, scoreCacheBytes: 64 << 20,
		logf: t.Logf,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hot := encodeGraph(t, testGraph(t, 64), "csv").Bytes()
	postHot := func() time.Duration {
		started := time.Now()
		resp, err := http.Post(ts.URL+"/backbone?method=slowtest", "text/csv", bytes.NewReader(hot))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hot request: status %d", resp.StatusCode)
		}
		return time.Since(started)
	}
	postHot() // cold first touch caches the table

	const samples = 30
	p99 := func(ls []time.Duration) time.Duration {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		idx := int(0.99*float64(len(ls))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ls) {
			idx = len(ls) - 1
		}
		return ls[idx]
	}
	var unloaded []time.Duration
	for i := 0; i < samples; i++ {
		unloaded = append(unloaded, postHot())
	}
	unloadedP99 := p99(unloaded)

	// Saturate the cold lane: a large distinct-body pool keeps repeat
	// hits (which would ride the fast lane too) rare.
	capacity := float64(workers-1) / overloadCost.Seconds()
	loadCtx, stopLoad := context.WithCancel(context.Background())
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		_, err := loadgen.Run(loadCtx, loadgen.Config{
			URL:      ts.URL,
			Path:     "/backbone",
			Query:    "method=slowtest",
			RPS:      2 * capacity,
			Duration: overloadDuration(4*time.Second) + 10*time.Second,
			Timeout:  2 * time.Second,
			Bodies:   overloadBodies(t, 256),
			Seed:     7,
		})
		if err != nil && loadCtx.Err() == nil {
			t.Error(err)
		}
	}()
	// Let the queue build before measuring.
	time.Sleep(500 * time.Millisecond)
	var loaded []time.Duration
	for i := 0; i < samples; i++ {
		loaded = append(loaded, postHot())
		time.Sleep(20 * time.Millisecond)
	}
	stopLoad()
	<-loadDone

	loadedP99 := p99(loaded)
	bound := 3 * unloadedP99
	if floor := 150 * time.Millisecond; bound < floor {
		// Sub-ms unloaded hits make a literal 3x bound CI-noise; the
		// floor still sits far under the cold queue's wait, so starving
		// the fast lane would trip it regardless.
		bound = floor
	}
	t.Logf("fast-lane p99: unloaded %v, under overload %v (bound %v)", unloadedP99, loadedP99, bound)
	if loadedP99 > bound {
		t.Errorf("fast-lane p99 %v under cold overload, want <= %v (3x unloaded %v, noise-floored)",
			loadedP99, bound, unloadedP99)
	}
	if ast := fetchAdmissionStatsz(t, ts.URL); ast.DeadlineViolations != 0 {
		t.Errorf("deadline_violations = %d, want 0", ast.DeadlineViolations)
	}
}

// TestOverloadChaosSmoke drives 2x capacity with latency and error
// injection enabled (-chaos): the node must neither panic nor violate
// a deadline, and goodput must stay nonzero — the CI overload-smoke
// gate.
func TestOverloadChaosSmoke(t *testing.T) {
	const workers = 4
	fault, err := resilient.ParseFaultSpec("latency=30ms,latency-rate=0.3,error=0.05")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serverConfig{
		workers: workers, timeout: 5 * time.Second, maxBody: 1 << 24,
		fault: fault,
		logf:  t.Logf,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	capacity := float64(workers-1) / overloadCost.Seconds()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:      ts.URL,
		Path:     "/backbone",
		Query:    "method=slowtest",
		RPS:      2 * capacity,
		Duration: overloadDuration(3 * time.Second),
		Timeout:  2 * time.Second,
		Bodies:   overloadBodies(t, 32),
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos run: goodput %.1f rps, outcomes %v", rep.GoodputRPS, rep.Outcomes)
	if rep.Outcomes[loadgen.OK] == 0 {
		t.Error("zero goodput under chaos — the node fell over instead of degrading")
	}
	if ast := fetchAdmissionStatsz(t, ts.URL); ast.DeadlineViolations != 0 {
		t.Errorf("deadline_violations = %d, want 0", ast.DeadlineViolations)
	}
}
