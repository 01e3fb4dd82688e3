package filter

import (
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
	m := testMethod()
	bb, err := m.Backbone(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bb.NumEdges() != 2 { // weights 5 and 3 beat the default cut 2
		t.Errorf("default cut kept %d edges, want 2", bb.NumEdges())
	}
	bb, err = m.Backbone(g, Params{"cut": 4})
	if err != nil {
		t.Fatal(err)
	}
	if bb.NumEdges() != 1 {
		t.Errorf("cut 4 kept %d edges, want 1", bb.NumEdges())
	}

	ext := &Method{Name: "keepall", Extractor: fakeExtractor{"keepall"}}
	bb, err = ext.Backbone(g, nil)
	if err != nil || bb.NumEdges() != g.NumEdges() {
		t.Fatalf("extractor path: %d edges, %v", bb.NumEdges(), err)
	}
	if _, err := ext.Score(g); err == nil {
		t.Error("extract-only method produced scores")
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
