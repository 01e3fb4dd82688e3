package repro

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func evalTestGraph(t testing.TB, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	n := m/4 + 2
	b := NewBuilder(false)
	b.AddNodes(n)
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, 1+rng.Float64()*20); err != nil {
			t.Fatal(err)
		}
		added++
	}
	return b.Build()
}

// TestEvalOptionWiring: the shared option set reaches the engine — the
// method subset, pruning size, ride-along parameters and the stability
// snapshot all take effect through the public wrappers.
func TestEvalOptionWiring(t *testing.T) {
	g := evalTestGraph(t, 400)
	next := evalTestGraph(t, 300)
	rep, err := Compare(g,
		WithMethods("nc", "df", "mst"),
		WithTopK(50),
		WithDelta(2.0),
		WithNextSnapshot(next),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Methods) != 3 || rep.TargetEdges != 50 {
		t.Fatalf("report shape: %d methods, target %d", len(rep.Methods), rep.TargetEdges)
	}
	if rep.Methods[0].Params["delta"] != 2.0 {
		t.Errorf("ride-along delta lost: %v", rep.Methods[0].Params)
	}
	for _, me := range rep.Methods {
		if me.Err != "" {
			continue
		}
		if math.IsNaN(float64(me.Stability)) {
			t.Errorf("%s: stability NaN despite WithNextSnapshot", me.Method)
		}
	}
	// WithMethod (singular) narrows the evaluation, so pipeline-style
	// call sites compose.
	one, err := Evaluate(g, WithMethod("nt"), WithWeightThreshold(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Methods) != 1 || one.Methods[0].Method != "nt" {
		t.Fatalf("WithMethod narrowing: %+v", one.Methods)
	}
}

// TestEvalOnlyOptionsRejectedByPipeline: evaluation-only options are a
// typed error on the single-method pipeline instead of a silent no-op.
func TestEvalOnlyOptionsRejectedByPipeline(t *testing.T) {
	g := evalTestGraph(t, 60)
	for name, opt := range map[string]Option{
		"WithMethods":      WithMethods("nc"),
		"WithNextSnapshot": WithNextSnapshot(g),
		"WithGroundTruth":  WithGroundTruth(g),
	} {
		var pe *ParamError
		if _, err := Backbone(g, opt); !errors.As(err, &pe) {
			t.Errorf("Backbone with %s: err = %v, want ParamError", name, err)
		}
		if _, err := Score(g, opt); err == nil {
			t.Errorf("Score with %s accepted", name)
		}
	}
	// WithScores does not carry into evaluations; the error points at
	// WithScoreSource instead.
	s, err := Score(g, WithMethod("nc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(g, WithScores(s)); err == nil {
		t.Error("Evaluate accepted WithScores")
	}
	// The sources are not evaluation-only, but a run takes its table
	// from one supplier: WithScores next to a source is a ParamError.
	src := WithScoreSource(func(context.Context, *Method) (*Scores, bool, error) {
		t.Error("score source read beside WithScores")
		return s, true, nil
	})
	var pe *ParamError
	if _, err := Backbone(g, WithScores(s), src); !errors.As(err, &pe) {
		t.Errorf("Backbone with WithScores and WithScoreSource: err = %v, want ParamError", err)
	}
	if _, err := Score(g, WithScores(s), src); !errors.As(err, &pe) {
		t.Errorf("Score with WithScores and WithScoreSource: err = %v, want ParamError", err)
	}
}

// TestEvaluateContextCancellation: the wrappers surface context expiry
// as the context error, matching the daemon's 499/504 mapping.
func TestEvaluateContextCancellation(t *testing.T) {
	g := evalTestGraph(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := EvaluateContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluateUnknownInputs: unknown methods and undeclared ride-along
// parameters fail with the pipeline's typed errors.
func TestEvaluateUnknownInputs(t *testing.T) {
	g := evalTestGraph(t, 60)
	if _, err := Evaluate(g, WithMethods("bogus")); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method: %v", err)
	}
	if _, err := Compare(g, WithMethods("mst"), WithDelta(1)); !errors.Is(err, ErrUnknownParam) {
		t.Errorf("undeclared ride-along: %v", err)
	}
}
