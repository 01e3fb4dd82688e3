package filter

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// fakeScorer scores edges by raw weight, enough to exercise the
// registry plumbing without importing the algorithm packages (which
// would create an import cycle).
type fakeScorer struct{ name string }

func (f fakeScorer) Name() string { return f.name }
func (f fakeScorer) Scores(g *graph.Graph) (*Scores, error) {
	s := &Scores{G: g, Score: make([]float64, g.NumEdges()), Method: f.name}
	for i, e := range g.Edges() {
		s.Score[i] = e.Weight
	}
	return s, nil
}

type fakeExtractor struct{ name string }

func (f fakeExtractor) Name() string { return f.name }
func (f fakeExtractor) Extract(g *graph.Graph) (*graph.Graph, error) {
	return g.FilterEdges(func(int, graph.Edge) bool { return true }), nil
}

func methodGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(false)
	for i := 0; i < 4; i++ {
		b.AddNode("")
	}
	b.MustAddEdge(0, 1, 5)
	b.MustAddEdge(1, 2, 3)
	b.MustAddEdge(2, 3, 1)
	return b.Build()
}

func testMethod() *Method {
	return &Method{
		Name:   "fake",
		Title:  "Fake",
		Params: []Param{{Name: "cut", Default: 2, Desc: "weight cut"}},
		Scorer: fakeScorer{"fake"},
		Cut:    func(p Params) float64 { return p["cut"] },
	}
}

func TestRegistryRegisterLookupAll(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(testMethod()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testMethod()); err == nil {
		t.Error("duplicate name accepted")
	}
	m, err := r.Lookup("fake")
	if err != nil || m.Title != "Fake" {
		t.Fatalf("Lookup: %v, %v", m, err)
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Error("unknown name accepted")
	} else if !strings.Contains(err.Error(), "fake") {
		t.Errorf("unknown-name error should list known methods, got %v", err)
	}
	ext := &Method{Name: "aaa", Order: 99, Extractor: fakeExtractor{"aaa"}}
	if err := r.Register(ext); err != nil {
		t.Fatal(err)
	}
	all := r.All()
	if len(all) != 2 || all[0].Name != "fake" || all[1].Name != "aaa" {
		t.Errorf("All order: %v (want Order field to win over name)", r.Names())
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	bad := []*Method{
		nil,
		{Name: ""},
		{Name: "noimpl"},
		{Name: "cutnoscorer", Cut: func(Params) float64 { return 0 }, Extractor: fakeExtractor{"x"}},
		{Name: "scorernodefault", Scorer: fakeScorer{"x"}},
		{Name: "dupparam", Scorer: fakeScorer{"x"}, Cut: func(Params) float64 { return 0 },
			Params: []Param{{Name: "a"}, {Name: "a"}}},
		{Name: "unnamedparam", Scorer: fakeScorer{"x"}, Cut: func(Params) float64 { return 0 },
			Params: []Param{{Name: ""}}},
		{Name: "reservedparam", Scorer: fakeScorer{"x"}, Cut: func(Params) float64 { return 0 },
			Params: []Param{{Name: "top"}}},
	}
	for _, m := range bad {
		if err := r.Register(m); err == nil {
			t.Errorf("invalid method %+v accepted", m)
		}
	}
	if len(r.All()) != 0 {
		t.Errorf("registry not empty after rejected registrations: %v", r.Names())
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister did not panic on invalid method")
		}
	}()
	NewRegistry().MustRegister(&Method{Name: "broken"})
}

func TestMethodResolve(t *testing.T) {
	m := testMethod()
	p, err := m.Resolve(nil)
	if err != nil || p["cut"] != 2 {
		t.Fatalf("defaults: %v, %v", p, err)
	}
	p, err = m.Resolve(Params{"cut": 4})
	if err != nil || p["cut"] != 4 {
		t.Fatalf("override: %v, %v", p, err)
	}
	if _, err := m.Resolve(Params{"delta": 1}); err == nil {
		t.Error("undeclared parameter accepted")
	}
}

func TestMethodBackbone(t *testing.T) {
	g := methodGraph(t)
	ctx := context.Background()
	m := testMethod()
	cut := func(m *Method, overrides Params, k int, table func() (*Scores, error)) (*graph.Graph, *Scores) {
		t.Helper()
		p, err := m.Resolve(overrides)
		if err != nil {
			t.Fatal(err)
		}
		sel, s, err := m.BackboneCtx(ctx, g, p, k, table, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sel.Graph(), s
	}
	bb, s := cut(m, nil, -1, nil)
	if bb.NumEdges() != 2 { // weights 5 and 3 beat the default cut 2
		t.Errorf("default cut kept %d edges, want 2", bb.NumEdges())
	}
	if s == nil || len(s.Score) != g.NumEdges() {
		t.Error("Cut path did not return the table it pruned")
	}
	if bb, _ = cut(m, Params{"cut": 4}, -1, nil); bb.NumEdges() != 1 {
		t.Errorf("cut 4 kept %d edges, want 1", bb.NumEdges())
	}
	// k ≥ 0 ranks instead of applying Cut; parameters do not move it.
	if bb, _ = cut(m, Params{"cut": 4}, 2, nil); bb.NumEdges() != 2 {
		t.Errorf("top 2 kept %d edges, want 2", bb.NumEdges())
	}
	// A supplied table is the one pruned, read once.
	pre, err := m.Score(g)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	supplied := func() (*Scores, error) { calls++; return pre, nil }
	if _, s = cut(m, nil, -1, supplied); s != pre || calls != 1 {
		t.Errorf("supplied table: got %p after %d calls, want %p after 1", s, calls, pre)
	}
	tableErr := errors.New("table failed")
	if _, _, err := m.BackboneCtx(ctx, g, m.Defaults(), 1, func() (*Scores, error) { return nil, tableErr }, nil); !errors.Is(err, tableErr) {
		t.Errorf("table error: %v, want %v", err, tableErr)
	}

	// Extract-only: the table callback never runs, top-k is ErrNoScorer.
	noTable := func() (*Scores, error) {
		t.Error("table requested on an extractor path")
		return nil, nil
	}
	ext := &Method{Name: "keepall", Extractor: fakeExtractor{"keepall"}}
	if bb, s = cut(ext, nil, -1, noTable); bb.NumEdges() != g.NumEdges() || s != nil {
		t.Fatalf("extractor path: %d edges, table %v", bb.NumEdges(), s)
	}
	if _, _, err := ext.BackboneCtx(ctx, g, nil, 1, noTable, nil); !errors.Is(err, ErrNoScorer) {
		t.Errorf("top-k on extract-only: %v, want ErrNoScorer", err)
	}
	if _, err := ext.Score(g); err == nil {
		t.Error("extract-only method produced scores")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := ext.BackboneCtx(cancelled, g, nil, -1, noTable, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled extractor: %v, want context.Canceled", err)
	}

	// A supplied extraction is the one returned, and only on the
	// extractor path.
	one := graph.Selection{G: g, IDs: []int32{0}}
	if sel, s, err := ext.BackboneCtx(ctx, g, nil, -1, noTable, func() (graph.Selection, error) { return one, nil }); err != nil || sel.Len() != 1 || s != nil {
		t.Errorf("supplied extraction: %d edges, table %v, %v; want the supplied selection", sel.Len(), s, err)
	}
	noExtract := func() (graph.Selection, error) {
		t.Error("extraction requested on a table path")
		return graph.Selection{}, nil
	}
	if _, _, err := m.BackboneCtx(ctx, g, m.Defaults(), -1, nil, noExtract); err != nil {
		t.Fatal(err)
	}

	// A scorer without Cut (ds) extracts natively and ranks on top-k.
	both := &Method{Name: "both", Scorer: fakeScorer{"both"}, Extractor: fakeExtractor{"both"}}
	if bb, s = cut(both, nil, -1, noTable); bb.NumEdges() != g.NumEdges() || s != nil {
		t.Errorf("scorer without Cut: %d edges, table %v; want its extractor", bb.NumEdges(), s)
	}
	if bb, _ = cut(both, nil, 1, nil); bb.NumEdges() != 1 {
		t.Errorf("scorer without Cut, top 1: kept %d edges", bb.NumEdges())
	}

	for _, tc := range []struct {
		m      *Method
		ranked bool
		want   bool
	}{
		{m, false, true}, {m, true, true},
		{ext, false, false}, {ext, true, false},
		{both, false, false}, {both, true, true},
	} {
		if got := tc.m.NeedsTable(tc.ranked); got != tc.want {
			t.Errorf("%s.NeedsTable(%v) = %v, want %v", tc.m.Name, tc.ranked, got, tc.want)
		}
	}
}

func TestRegistrySelect(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testMethod())
	r.MustRegister(&Method{Name: "aaa", Order: 99, Extractor: fakeExtractor{"aaa"}})
	all, err := r.Select(nil, Params{"cut": 1})
	if err != nil || len(all) != 2 || all[0].Name != "fake" || all[1].Name != "aaa" {
		t.Fatalf("Select(nil): %v, %v", all, err)
	}
	if _, err := r.Select([]string{"nope"}, nil); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown name: %v, want ErrUnknownMethod", err)
	}
	_, err = r.Select([]string{"aaa"}, Params{"cut": 1, "zeta": 1})
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "cut" || !errors.Is(err, ErrUnknownParam) {
		t.Errorf("undeclared ride-along: %v, want *ParamError{cut}", err)
	}
	if got := all[0].Declared(Params{"cut": 1, "zeta": 2}); len(got) != 1 || got["cut"] != 1 {
		t.Errorf("Declared = %v, want only cut", got)
	}
}

func TestParamsClone(t *testing.T) {
	p := Params{"a": 1}
	c := p.Clone()
	c["a"] = 2
	if p["a"] != 1 {
		t.Error("Clone aliases the original map")
	}
}
