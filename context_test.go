package repro

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// bigTestGraph spans several scoring checkpoints so cancellation can
// land mid-run.
func bigTestGraph(t *testing.T, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := m / 4
	b := NewBuilder(false)
	b.AddNodes(n)
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, 1+rng.Float64()*50)
		added++
	}
	return b.Build()
}

// TestBackboneContextCancelMidRun: cancelling from the progress
// callback (i.e. after the first checkpoint range of scoring) aborts
// the run with context.Canceled before the remaining ranges are scored.
func TestBackboneContextCancelMidRun(t *testing.T) {
	g := bigTestGraph(t, 20_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	var once sync.Once
	res, err := BackboneContext(ctx, g,
		WithMethod("nc"),
		WithProgress(func(done, total int) {
			calls.Add(1)
			once.Do(cancel)
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
	}
	if calls.Load() == 0 {
		t.Error("progress callback never ran")
	}
}

// TestScoreContextProgressCompletes: an uncancelled run reports
// progress up to the exact edge total and returns the same table as
// the plain API.
func TestScoreContextProgressCompletes(t *testing.T) {
	g := bigTestGraph(t, 10_000)
	// Above 4096 edges the callback runs concurrently on every worker,
	// so the order of calls is not the order of counts: look for the
	// call that reports the total, not at whichever call came last.
	var complete atomic.Bool
	s, err := ScoreContext(context.Background(), g,
		WithMethod("nc"),
		WithProgress(func(done, total int) {
			if total != g.NumEdges() {
				t.Errorf("progress total = %d, want %d", total, g.NumEdges())
			}
			if done == total {
				complete.Store(true)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !complete.Load() {
		t.Errorf("progress never reached the edge total %d", g.NumEdges())
	}
	plain, err := Score(g, WithMethod("nc"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Score {
		if plain.Score[i] != s.Score[i] {
			t.Fatalf("score %d differs between context and plain runs", i)
		}
	}
}

// TestBackboneAllContextCancelled: a cancelled context surfaces in
// each per-method Result rather than failing the whole call.
func TestBackboneAllContextCancelled(t *testing.T) {
	g := bigTestGraph(t, 20_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := BackboneAllContext(ctx, g, []string{"nc", "df"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: Err = %v, want context.Canceled", r.Method, r.Err)
		}
	}
}

// TestSentinelErrors pins every exported sentinel to the public API
// call that produces it, via errors.Is/As.
func TestSentinelErrors(t *testing.T) {
	g := bigTestGraph(t, 100)

	if _, err := LookupMethod("bogus"); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("LookupMethod: %v, want ErrUnknownMethod", err)
	}
	if _, err := Backbone(g, WithMethod("bogus")); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("Backbone: %v, want ErrUnknownMethod", err)
	}

	_, err := Backbone(g, WithMethod("mst"), WithParam("delta", 1))
	if !errors.Is(err, ErrUnknownParam) {
		t.Errorf("undeclared param: %v, want ErrUnknownParam", err)
	}
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "delta" || pe.Method != "mst" {
		t.Errorf("undeclared param: %v, want *ParamError{mst, delta}", err)
	}

	if _, err := Backbone(g, WithMethod("mst"), WithTopK(10)); !errors.Is(err, ErrNoScorer) {
		t.Errorf("top-k on mst: %v, want ErrNoScorer", err)
	}
	if _, err := Score(g, WithMethod("mst")); !errors.Is(err, ErrNoScorer) {
		t.Errorf("Score on mst: %v, want ErrNoScorer", err)
	}

	if _, err := Backbone(g, WithTopK(-1)); !errors.As(err, &pe) {
		t.Errorf("WithTopK(-1): %v, want *ParamError", err)
	}
	if _, err := BackboneAll(g, []string{"nc", "df"}, WithParam("zeta", 1)); !errors.Is(err, ErrUnknownParam) {
		t.Errorf("BackboneAll undeclared param: %v, want ErrUnknownParam", err)
	}

	if _, err := LookupFormat("parquet"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("LookupFormat: %v, want ErrUnknownFormat", err)
	}
}
