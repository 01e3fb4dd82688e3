package repro

import (
	"math"
	"strings"
	"testing"
)

func demoGraph(t *testing.T) *Graph {
	t.Helper()
	csv := `src,dst,weight
rome,paris,30
rome,berlin,28
rome,lisbon,25
paris,berlin,22
paris,lisbon,3
lisbon,madrid,12
madrid,rome,14
berlin,madrid,9
`
	g, err := ReadCSV(strings.NewReader(csv), false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeEndToEnd(t *testing.T) {
	g := demoGraph(t)
	if g.NumNodes() != 5 || g.NumEdges() != 8 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	scores, err := Score(g, WithMethod("nc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := scores.Validate(); err != nil {
		t.Fatal(err)
	}
	bb := scores.TopK(4)
	if bb.NumEdges() != 4 {
		t.Fatalf("TopK(4) kept %d edges", bb.NumEdges())
	}
	if bb.NumNodes() != g.NumNodes() {
		t.Error("node set lost")
	}
	var sb strings.Builder
	if err := bb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	round, err := ReadCSV(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if round.NumEdges() != 4 {
		t.Errorf("round trip kept %d edges", round.NumEdges())
	}
}

func TestFacadeAllMethodsRun(t *testing.T) {
	g := demoGraph(t)
	if _, err := Backbone(g, WithMethod("nc"), WithDelta(1.0)); err != nil {
		t.Errorf("NC: %v", err)
	}
	if _, err := Score(g, WithMethod("nc-binomial")); err != nil {
		t.Errorf("NC binomial: %v", err)
	}
	if _, err := Backbone(g, WithMethod("df"), WithAlpha(0.2)); err != nil {
		t.Errorf("DF: %v", err)
	}
	if _, err := Backbone(g, WithMethod("hss"), WithSalience(0.5)); err != nil {
		t.Errorf("HSS: %v", err)
	}
	if _, err := Backbone(g, WithMethod("ds")); err != nil {
		t.Errorf("DS: %v", err)
	}
	tree, err := Backbone(g, WithMethod("mst"))
	if err != nil {
		t.Errorf("MST: %v", err)
	} else if tree.Backbone.NumEdges() != g.NumNodes()-1 {
		t.Errorf("MST edges = %d", tree.Backbone.NumEdges())
	}
	if _, err := Backbone(g, WithMethod("nt"), WithWeightThreshold(10)); err != nil {
		t.Errorf("naive: %v", err)
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder(true)
	u := b.AddNode("u")
	v := b.AddNode("v")
	if err := b.AddEdge(u, v, 2.5); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.TotalWeight() != 2.5 {
		t.Errorf("total = %v", g.TotalWeight())
	}
}

func TestFacadeNCEdgeAndPValues(t *testing.T) {
	es := NCEdge(3, 4, 3, 6)
	if math.Abs(es.Score-0.2) > 1e-12 {
		t.Errorf("NCEdge score = %v, want 0.2", es.Score)
	}
	p := DeltaToPValue(1.64)
	if math.Abs(p-0.05) > 5e-3 {
		t.Errorf("DeltaToPValue(1.64) = %v", p)
	}
	if math.Abs(PValueToDelta(p)-1.64) > 1e-9 {
		t.Error("p-value round trip failed")
	}
}

func TestFacadeKCoreAndParallel(t *testing.T) {
	g := demoGraph(t)
	s, err := Score(g, WithMethod("kcore"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bb, err := Backbone(g, WithMethod("kcore"), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if bb.Backbone.NumEdges() == 0 {
		t.Error("2-core empty on a dense demo graph")
	}
	par, err := Score(g, WithMethod("nc"), WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	ser, err := Score(g, WithMethod("nc"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser.Score {
		if ser.Score[i] != par.Score[i] {
			t.Fatal("parallel facade differs from serial")
		}
	}
}

func TestFacadeCompareAndChanges(t *testing.T) {
	g := demoGraph(t)
	a := NCEdge(30, 60, 60, 300)
	b := NCEdge(3, 60, 60, 300)
	c := CompareEdges(a, b)
	if c.Z <= 0 {
		t.Errorf("stronger edge should compare positive: z=%v", c.Z)
	}
	boosted := g.FilterEdges(func(_ int, e Edge) bool { return true })
	changes, err := Changes(g, boosted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != g.NumEdges() {
		t.Errorf("alpha=1 returned %d changes, want %d", len(changes), g.NumEdges())
	}
	for _, ch := range changes {
		if ch.PValue < 0.99 {
			t.Errorf("identical networks: edge %v changed with p=%v", ch.Key, ch.PValue)
		}
	}
}

func TestFacadeBipartiteAndDOT(t *testing.T) {
	bp := NewBipartite()
	r0 := bp.AddRow("x")
	r1 := bp.AddRow("y")
	c0 := bp.AddCol("s")
	if err := bp.Set(r0, c0, 1); err != nil {
		t.Fatal(err)
	}
	if err := bp.Set(r1, c0, 1); err != nil {
		t.Fatal(err)
	}
	g := bp.ProjectRows(false)
	if w, ok := g.Weight(r0, r1); !ok || w != 1 {
		t.Errorf("projection weight = %v, %v", w, ok)
	}
	var sb strings.Builder
	if err := g.WriteDOT(&sb, DOTOptions{NodeColor: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "graph") {
		t.Error("DOT render empty")
	}
}

func TestFacadeMultilayer(t *testing.T) {
	m := NewMultilayer(4)
	for _, name := range []string{"a", "b"} {
		b := NewBuilder(false)
		b.AddNodes(4)
		b.MustAddEdge(0, 1, 10)
		b.MustAddEdge(1, 2, 5)
		b.MustAddEdge(2, 3, 5)
		if err := m.AddLayer(name, b.Build()); err != nil {
			t.Fatal(err)
		}
	}
	scores, err := m.CoupledScores(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("layers scored = %d", len(scores))
	}
	for _, s := range scores {
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
	}
}
