package repro

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/filter"
)

func pipelineGraph(t *testing.T) *Graph {
	t.Helper()
	csv := "a,b,10\na,c,9\nb,c,1\nc,d,8\nd,e,7\nc,e,2\nd,a,6\ne,b,5\nb,d,3\n"
	g, err := ReadCSV(strings.NewReader(csv), false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// paperMethods is the method set the paper's comparison relies on; the
// registry must expose at least these, each exactly once.
var paperMethods = []string{"nc", "df", "hss", "ds", "mst", "nt", "nc-binomial", "kcore"}

func TestRegistryComplete(t *testing.T) {
	counts := map[string]int{}
	for _, m := range Methods() {
		counts[m.Name]++
	}
	for _, name := range paperMethods {
		if counts[name] != 1 {
			t.Errorf("method %q registered %d times, want exactly 1", name, counts[name])
		}
	}
	for name, n := range counts {
		if n != 1 {
			t.Errorf("method %q registered %d times", name, n)
		}
	}
	// Presentation order: the paper's six lead the list.
	names := make([]string, 0, len(counts))
	for _, m := range Methods() {
		names = append(names, m.Name)
	}
	for i, want := range []string{"nc", "df", "hss", "ds", "mst", "nt"} {
		if names[i] != want {
			t.Fatalf("Methods() order %v, want the paper's six first", names)
		}
	}
}

func TestLookupUnknownMethod(t *testing.T) {
	if _, err := LookupMethod("bogus"); err == nil {
		t.Error("LookupMethod(bogus) succeeded")
	}
	if _, err := Backbone(pipelineGraph(t), WithMethod("bogus")); err == nil {
		t.Error("Backbone with unknown method succeeded")
	}
	if _, err := Score(pipelineGraph(t), WithMethod("bogus")); err == nil {
		t.Error("Score with unknown method succeeded")
	}
	if _, err := BackboneAll(pipelineGraph(t), []string{"nc", "bogus"}); err == nil {
		t.Error("BackboneAll with unknown method succeeded")
	}
}

func TestBackboneResultMetadata(t *testing.T) {
	g := pipelineGraph(t)
	res, err := Backbone(g, WithDelta(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "nc" || res.Title != "Noise-Corrected" {
		t.Errorf("identity = %q/%q", res.Method, res.Title)
	}
	if res.Params["delta"] != 1.0 {
		t.Errorf("params = %v, want delta 1.0", res.Params)
	}
	if res.Scores == nil {
		t.Error("scoring method returned nil Scores")
	}
	if res.Duration <= 0 {
		t.Error("no duration recorded")
	}
	wantEdge := float64(res.Backbone.NumEdges()) / float64(g.NumEdges())
	if math.Abs(res.EdgeCoverage-wantEdge) > 1e-12 {
		t.Errorf("edge coverage %v, want %v", res.EdgeCoverage, wantEdge)
	}
	if res.NodeCoverage <= 0 || res.NodeCoverage > 1 {
		t.Errorf("node coverage %v out of range", res.NodeCoverage)
	}
	if s := res.String(); !strings.Contains(s, "nc") {
		t.Errorf("String() = %q", s)
	}

	// Extract-only method: no scores, still full metadata.
	res, err = Backbone(g, WithMethod("mst"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores != nil {
		t.Error("mst returned a Scores table")
	}
	if res.Backbone.NumEdges() != g.NumNodes()-1 {
		t.Errorf("mst kept %d edges on a connected %d-node graph", res.Backbone.NumEdges(), g.NumNodes())
	}
}

func TestPipelineOptionValidation(t *testing.T) {
	g := pipelineGraph(t)
	cases := []struct {
		name string
		opts []Option
	}{
		{"undeclared param", []Option{WithMethod("nc"), WithAlpha(0.05)}},
		{"mst with top-k", []Option{WithMethod("mst"), WithTopK(3)}},
		{"mst with param", []Option{WithMethod("mst"), WithDelta(1)}},
		{"negative top-k", []Option{WithTopK(-1)}},
		{"fraction over 1", []Option{WithTopFraction(1.5)}},
		{"fraction zero", []Option{WithTopFraction(0)}},
	}
	for _, c := range cases {
		if _, err := Backbone(g, c.opts...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Score rejects undeclared params and pruning options too.
	if _, err := Score(g, WithMethod("df"), WithDelta(2)); err == nil {
		t.Error("Score accepted delta for df")
	}
	if _, err := Score(g, WithTopK(3)); err == nil {
		t.Error("Score accepted WithTopK")
	}
	if _, err := Score(g, WithTopFraction(0.5)); err == nil {
		t.Error("Score accepted WithTopFraction")
	}
}

// TestScorePruningIsParamError: Score's refusal to prune is a typed
// caller mistake, and ValidateScore returns the same error without
// scoring.
func TestScorePruningIsParamError(t *testing.T) {
	g := pipelineGraph(t)
	for _, opt := range []Option{WithTopK(3), WithTopFraction(0.5)} {
		_, err := Score(g, WithMethod("df"), opt)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Method != "df" {
			t.Fatalf("Score with pruning: %v, want a *ParamError for df", err)
		}
		if verr := ValidateScore(WithMethod("df"), opt); verr == nil || verr.Error() != err.Error() {
			t.Errorf("ValidateScore = %v, want Score's %v", verr, err)
		}
	}
	if err := ValidateScore(WithMethod("df"), WithAlpha(0.1)); err != nil {
		t.Errorf("ValidateScore rejected a valid request: %v", err)
	}
}

func TestTopKAndFraction(t *testing.T) {
	g := pipelineGraph(t)
	res, err := Backbone(g, WithMethod("df"), WithTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backbone.NumEdges() != 4 {
		t.Errorf("TopK(4) kept %d edges", res.Backbone.NumEdges())
	}
	res, err = Backbone(g, WithTopFraction(0.5))
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.5*float64(g.NumEdges()) + 0.5)
	if res.Backbone.NumEdges() != want {
		t.Errorf("TopFraction(0.5) kept %d edges, want %d", res.Backbone.NumEdges(), want)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := pipelineGraph(t)
	serial, err := Score(g, WithMethod("nc"))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Score(g, WithMethod("nc"), WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Score {
		if serial.Score[i] != par.Score[i] {
			t.Fatalf("edge %d: serial %v, parallel %v", i, serial.Score[i], par.Score[i])
		}
	}
	// Methods without a parallel scorer silently run serially.
	if _, err := Score(g, WithMethod("df"), WithParallel()); err != nil {
		t.Errorf("df with WithParallel: %v", err)
	}
}

// TestBackboneAll checks the concurrent multi-method comparison:
// results arrive in method order, sizes match under WithTopK, and the
// lenient option handling skips inapplicable parameters. Run under
// -race this also exercises the concurrency of BackboneAll and of the
// registry's lookups.
func TestBackboneAll(t *testing.T) {
	g := pipelineGraph(t)
	names := []string{"nt", "nc", "mst", "df"} // deliberately not registry order
	results, err := BackboneAll(g, names, WithTopK(4), WithDelta(1.64))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("%d results for %d methods", len(results), len(names))
	}
	for i, name := range names {
		if results[i].Method != name {
			t.Errorf("result %d is %q, want %q (input order must be preserved)", i, results[i].Method, name)
		}
	}
	for _, res := range results {
		if res.Method == "mst" {
			continue // cannot rank: fixed size
		}
		if res.Backbone.NumEdges() != 4 {
			t.Errorf("%s: %d edges, want size-matched 4", res.Method, res.Backbone.NumEdges())
		}
	}

	// A runtime failure of one method must not abort the others: a
	// directed graph with a source-only node has no doubly stochastic
	// transformation, but every other method still runs. (The "n/a"
	// cells of the paper's Table II.)
	db := NewBuilder(true)
	for i := 0; i < 3; i++ {
		db.AddNode("")
	}
	db.MustAddEdge(0, 1, 5)
	db.MustAddEdge(0, 2, 3)
	db.MustAddEdge(1, 2, 2)
	directed := db.Build()
	mixed, err := BackboneAll(directed, []string{"nc", "ds", "nt"})
	if err != nil {
		t.Fatalf("BackboneAll with failing ds: %v", err)
	}
	if mixed[1].Err == nil {
		t.Error("ds on a source-only graph should fail")
	} else if mixed[1].Backbone != nil {
		t.Error("failed result carries a backbone")
	}
	for _, i := range []int{0, 2} {
		if mixed[i].Err != nil || mixed[i].Backbone == nil {
			t.Errorf("%s aborted by ds failure: %v", mixed[i].Method, mixed[i].Err)
		}
	}
	if s := mixed[1].String(); !strings.Contains(s, "n/a") {
		t.Errorf("failed result String() = %q, want n/a", s)
	}

	// A parameter no selected method declares is a misspelling, not a
	// ride-along: it must fail loudly instead of silently running every
	// method at defaults.
	if _, err := BackboneAll(g, names, WithParam("deta", 2.32)); err == nil {
		t.Error("BackboneAll accepted a parameter no method declares")
	}
	if _, err := BackboneAll(g, []string{"nc", "df"}, WithDelta(2.32), WithAlpha(0.1)); err != nil {
		t.Errorf("declared ride-along params rejected: %v", err)
	}

	// Nil method list = every registered method, registry order.
	all, err := BackboneAll(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := Methods()
	if len(all) != len(reg) {
		t.Fatalf("%d results for %d registered methods", len(all), len(reg))
	}
	for i, m := range reg {
		if all[i].Method != m.Name {
			t.Errorf("result %d is %q, want %q", i, all[i].Method, m.Name)
		}
	}
}

func TestMethodsTable(t *testing.T) {
	table := MethodsTable()
	for _, m := range Methods() {
		if !strings.Contains(table, "`"+m.Name+"`") {
			t.Errorf("MethodsTable missing %q", m.Name)
		}
		for _, p := range m.Params {
			if !strings.Contains(table, "`"+p.Name+"=") {
				t.Errorf("MethodsTable missing parameter %q of %q", p.Name, m.Name)
			}
		}
	}
}

// TestRegistryIsolation: a private registry does not leak into Default.
func TestRegistryIsolation(t *testing.T) {
	r := filter.NewRegistry()
	m, err := filter.Lookup("nc")
	if err != nil {
		t.Fatal(err)
	}
	clone := *m
	clone.Name = "nc-clone"
	if err := r.Register(&clone); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupMethod("nc-clone"); err == nil {
		t.Error("private registration visible in Default registry")
	}
	if err := r.Register(&clone); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// TestWithScores: a precomputed table lets Backbone skip scoring and
// produce the identical result — for the method's native threshold and
// for top-k pruning — while a table from a different graph is a typed
// parameter error.
func TestWithScores(t *testing.T) {
	g := pipelineGraph(t)
	scores, err := Score(g, WithMethod("nc"))
	if err != nil {
		t.Fatal(err)
	}

	want, err := Backbone(g, WithMethod("nc"), WithDelta(0.8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Backbone(g, WithMethod("nc"), WithDelta(0.8), WithScores(scores))
	if err != nil {
		t.Fatal(err)
	}
	if got.Backbone.NumEdges() != want.Backbone.NumEdges() || got.Params["delta"] != 0.8 {
		t.Errorf("WithScores backbone: %d edges (params %v), want %d",
			got.Backbone.NumEdges(), got.Params, want.Backbone.NumEdges())
	}
	if got.Scores != scores {
		t.Error("result does not carry the supplied table")
	}

	wantTop, err := Backbone(g, WithMethod("nc"), WithTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	gotTop, err := Backbone(g, WithMethod("nc"), WithTopK(4), WithScores(scores))
	if err != nil {
		t.Fatal(err)
	}
	if gotTop.Backbone.NumEdges() != wantTop.Backbone.NumEdges() {
		t.Errorf("WithScores top-k: %d edges, want %d", gotTop.Backbone.NumEdges(), wantTop.Backbone.NumEdges())
	}

	other := pipelineGraph(t)
	var pe *ParamError
	if _, err := Backbone(other, WithMethod("nc"), WithScores(scores)); !errors.As(err, &pe) {
		t.Errorf("foreign-graph table: err = %v, want *ParamError", err)
	}
}
