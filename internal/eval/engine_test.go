package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/graph"

	// The algorithm packages self-register their methods into the
	// default registry the engine draws from.
	_ "repro/internal/backbone"
	_ "repro/internal/core"
)

// engineGraph builds a connected weighted test graph with clear
// signal/noise structure so every method has something to keep.
func engineGraph(t testing.TB, m int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	n := m/4 + 2
	b := graph.NewBuilder(false)
	b.AddNodes(n)
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, 1+rng.Float64()*20)
		added++
	}
	return b.Build()
}

func TestEvaluateDefaults(t *testing.T) {
	g := engineGraph(t, 400)
	rep, err := Evaluate(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Methods) != len(filter.All()) {
		t.Fatalf("evaluated %d methods, registry has %d", len(rep.Methods), len(filter.All()))
	}
	if rep.SizeMatched || len(rep.Ranking) != 0 {
		t.Error("Evaluate must not size-match or rank")
	}
	for _, me := range rep.Methods {
		if me.Err != "" {
			continue
		}
		if c := float64(me.Coverage); math.IsNaN(c) || c < 0 || c > 1 {
			t.Errorf("%s: coverage = %v", me.Method, c)
		}
		// No snapshot/truth/design supplied: those criteria must be NaN.
		for name, v := range map[string]Float{"stability": me.Stability, "recovery": me.Recovery, "quality": me.Quality} {
			if !math.IsNaN(float64(v)) {
				t.Errorf("%s: %s = %v without inputs, want NaN", me.Method, name, v)
			}
		}
	}
}

func TestCompareSizeMatchAndRanking(t *testing.T) {
	g := engineGraph(t, 600)
	target := 60
	rep, err := Compare(context.Background(), g, Config{TopK: target, TopKSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SizeMatched || rep.TargetEdges != target {
		t.Fatalf("size matching lost: %+v", rep)
	}
	ran := 0
	for _, me := range rep.Methods {
		if me.Err != "" {
			continue
		}
		ran++
		m, err := filter.Lookup(me.Method)
		if err != nil {
			t.Fatal(err)
		}
		if m.CanScore() && !m.FixedSize && me.Edges != target {
			t.Errorf("%s: %d edges, want size-matched %d", me.Method, me.Edges, target)
		}
	}
	if len(rep.Ranking) != ran {
		t.Errorf("ranking has %d entries, %d methods ran", len(rep.Ranking), ran)
	}
	// The ranking is sorted by composite, best first.
	byName := map[string]*MethodEval{}
	for _, me := range rep.Methods {
		byName[me.Method] = me
	}
	for i := 1; i < len(rep.Ranking); i++ {
		a, b := float64(byName[rep.Ranking[i-1]].Composite), float64(byName[rep.Ranking[i]].Composite)
		if !math.IsNaN(a) && !math.IsNaN(b) && a < b {
			t.Errorf("ranking not sorted: %v(%v) before %v(%v)", rep.Ranking[i-1], a, rep.Ranking[i], b)
		}
	}
}

func TestCompareCriteriaAgainstDirectCalls(t *testing.T) {
	g := engineGraph(t, 400)
	next := engineGraph(t, 300)
	truth := g.FilterEdges(func(_ int, e graph.Edge) bool { return e.Weight > 12 })
	rep, err := Compare(context.Background(), g, Config{
		Methods: []string{"nc"},
		TopK:    truth.NumEdges(), TopKSet: true,
		Next: next, Truth: truth,
	})
	if err != nil {
		t.Fatal(err)
	}
	me := rep.Methods[0]
	// Recompute through the pipeline primitives and the criteria
	// directly; the engine must agree bit-for-bit.
	m, _ := filter.Lookup("nc")
	s, err := m.Score(g)
	if err != nil {
		t.Fatal(err)
	}
	bb := s.TopK(truth.NumEdges())
	if want := Coverage(g, bb.All()); float64(me.Coverage) != want {
		t.Errorf("coverage = %v, direct %v", me.Coverage, want)
	}
	if want := Stability(bb, next); float64(me.Stability) != want {
		t.Errorf("stability = %v, direct %v", me.Stability, want)
	}
	if want := Recovery(bb, truth); float64(me.Recovery) != want {
		t.Errorf("recovery = %v, direct %v", me.Recovery, want)
	}
}

func TestEngineErrors(t *testing.T) {
	g := engineGraph(t, 100)
	if _, err := Evaluate(context.Background(), g, Config{Methods: []string{"bogus"}}); !errors.Is(err, filter.ErrUnknownMethod) {
		t.Errorf("unknown method error = %v", err)
	}
	if _, err := Evaluate(context.Background(), g, Config{Params: filter.Params{"nope": 1}}); !errors.Is(err, filter.ErrUnknownParam) {
		t.Errorf("undeclared ride-along param error = %v", err)
	}
	// Declared by at least one method: rides along leniently.
	rep, err := Evaluate(context.Background(), g, Config{
		Methods: []string{"nc", "mst"},
		Params:  filter.Params{"delta": 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Methods[0].Params["delta"] != 2.5 {
		t.Errorf("nc params = %v, want delta 2.5", rep.Methods[0].Params)
	}
	if rep.Methods[1].Err != "" {
		t.Errorf("mst must ignore the ride-along delta, got err %q", rep.Methods[1].Err)
	}
	// Cancelled context surfaces as the context error, not per-method n/a.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compare(ctx, g, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run error = %v", err)
	}
}

// TestScoreSourceReuse: a caching source is consulted once per method
// per run, and a second run served entirely from the cache reports
// CacheHits == ScoredMethods — the daemon's "re-evaluating a cached
// body skips scoring" contract.
func TestScoreSourceReuse(t *testing.T) {
	g := engineGraph(t, 400)
	// The engine consults the source from concurrent per-method
	// goroutines — the fake cache must lock like a real one would.
	var mu sync.Mutex
	cache := map[string]*filter.Scores{}
	calls := map[string]int{}
	src := func(ctx context.Context, m *filter.Method) (*filter.Scores, bool, error) {
		mu.Lock()
		s, ok := cache[m.Name]
		mu.Unlock()
		if ok {
			return s, true, nil
		}
		s, err := m.ScoreCtx(ctx, g, filter.ScoreOpts{})
		if err != nil {
			return nil, false, err
		}
		mu.Lock()
		calls[m.Name]++
		cache[m.Name] = s
		mu.Unlock()
		return s, false, nil
	}
	cfg := Config{Source: src}
	rep1, err := Compare(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.ScoredMethods == 0 || rep1.CacheHits != 0 {
		t.Fatalf("first run: scored %d, cache hits %d", rep1.ScoredMethods, rep1.CacheHits)
	}
	for name, n := range calls {
		if n != 1 {
			t.Errorf("%s scored %d times in one comparison", name, n)
		}
	}
	rep2, err := Compare(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != rep2.ScoredMethods || rep2.ScoredMethods != rep1.ScoredMethods {
		t.Errorf("second run: %d cache hits of %d scored methods, want all (first run scored %d)",
			rep2.CacheHits, rep2.ScoredMethods, rep1.ScoredMethods)
	}
	for _, me := range rep2.Methods {
		m, _ := filter.Lookup(me.Method)
		if m.CanScore() && !m.FixedSize && !me.ScoreCached {
			t.Errorf("%s not served from cache on second run", me.Method)
		}
	}
}

// TestReportJSONNaNAsNull is the regression test for the NaN-criteria
// bugfix: Coverage/Stability return NaN on empty denominators, and
// encoding/json rejects NaN — the report must marshal them as explicit
// nulls, and unmarshal them back to NaN.
func TestReportJSONNaNAsNull(t *testing.T) {
	g := engineGraph(t, 60)
	rep, err := Compare(context.Background(), g, Config{Methods: []string{"nc", "mst"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report with NaN criteria failed to marshal: %v", err)
	}
	// No snapshot was supplied, so every method's stability is NaN and
	// must appear as a literal null.
	if !strings.Contains(string(data), `"stability":null`) {
		t.Errorf("NaN stability not encoded as null: %s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.Methods[0].Stability)) {
		t.Errorf("null did not round-trip to NaN: %v", back.Methods[0].Stability)
	}
	// Direct Float checks, including the infinities.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, err := json.Marshal(Float(v))
		if err != nil || string(b) != "null" {
			t.Errorf("Float(%v) marshaled to %q, %v", v, b, err)
		}
	}
	if b, _ := json.Marshal(Float(0.25)); string(b) != "0.25" {
		t.Errorf("Float(0.25) = %s", b)
	}
}

// TestEvaluateNativeThresholds: Evaluate prunes scoring methods at
// their own Cut rule — nc at delta, overridable via Params.
func TestEvaluateNativeThresholds(t *testing.T) {
	g := engineGraph(t, 400)
	loose, err := Evaluate(context.Background(), g, Config{Methods: []string{"nc"}, Params: filter.Params{"delta": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Evaluate(context.Background(), g, Config{Methods: []string{"nc"}, Params: filter.Params{"delta": 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Methods[0].Edges <= strict.Methods[0].Edges {
		t.Errorf("delta 0.5 kept %d edges, delta 3.5 kept %d — threshold not applied",
			loose.Methods[0].Edges, strict.Methods[0].Edges)
	}
}

func TestRankingDeterminism(t *testing.T) {
	g := engineGraph(t, 300)
	var first []string
	for i := 0; i < 3; i++ {
		rep, err := Compare(context.Background(), g, Config{Frac: 0.2, FracSet: true})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep.Ranking
			continue
		}
		if fmt.Sprint(rep.Ranking) != fmt.Sprint(first) {
			t.Fatalf("ranking changed across runs: %v vs %v", rep.Ranking, first)
		}
	}
}
