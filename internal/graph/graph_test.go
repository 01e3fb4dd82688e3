package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(directed)
	a, bb, c := b.AddNode("a"), b.AddNode("b"), b.AddNode("c")
	b.MustAddEdge(a, bb, 1)
	b.MustAddEdge(bb, c, 2)
	b.MustAddEdge(c, a, 3)
	return b.Build()
}

func TestBuildDirectedBasics(t *testing.T) {
	g := buildTriangle(t, true)
	if !g.Directed() {
		t.Fatal("expected directed")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if got := g.TotalWeight(); got != 6 {
		t.Errorf("TotalWeight = %v, want 6", got)
	}
	a := g.NodeID("a")
	if g.OutStrength(a) != 1 || g.InStrength(a) != 3 {
		t.Errorf("node a: out=%v in=%v, want 1, 3", g.OutStrength(a), g.InStrength(a))
	}
	if w, ok := g.Weight(a, g.NodeID("b")); !ok || w != 1 {
		t.Errorf("Weight(a,b) = %v,%v want 1,true", w, ok)
	}
	if _, ok := g.Weight(g.NodeID("b"), a); ok {
		t.Error("Weight(b,a) should not exist in directed graph")
	}
}

func TestBuildUndirectedStrengths(t *testing.T) {
	g := buildTriangle(t, false)
	// Undirected: strengths are incident sums, total counts both directions.
	a := g.NodeID("a")
	if g.OutStrength(a) != 4 || g.InStrength(a) != 4 {
		t.Errorf("node a strength = %v/%v, want 4/4", g.OutStrength(a), g.InStrength(a))
	}
	if g.TotalWeight() != 12 {
		t.Errorf("TotalWeight = %v, want 12 (2x undirected sum)", g.TotalWeight())
	}
	// sum_i N_i. must equal N.. in both conventions.
	var sum float64
	for u := 0; u < g.NumNodes(); u++ {
		sum += g.OutStrength(u)
	}
	if sum != g.TotalWeight() {
		t.Errorf("sum of strengths %v != total %v", sum, g.TotalWeight())
	}
	if w, ok := g.Weight(g.NodeID("b"), a); !ok || w != 1 {
		t.Errorf("undirected Weight(b,a) = %v,%v want 1,true", w, ok)
	}
}

func TestDuplicateEdgesAccumulate(t *testing.T) {
	b := NewBuilder(true)
	u, v := b.AddNode("u"), b.AddNode("v")
	b.MustAddEdge(u, v, 1.5)
	b.MustAddEdge(u, v, 2.5)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Edges()[0].Weight != 4 {
		t.Errorf("weight = %v, want 4", g.Edges()[0].Weight)
	}
}

func TestUndirectedCanonicalOrder(t *testing.T) {
	b := NewBuilder(false)
	b.AddNodes(3)
	b.MustAddEdge(2, 0, 1)
	b.MustAddEdge(0, 2, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (both orders merge)", g.NumEdges())
	}
	e := g.Edges()[0]
	if e.Src != 0 || e.Dst != 2 || e.Weight != 2 {
		t.Errorf("edge = %+v, want {0 2 2}", e)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(true)
	b.AddNodes(2)
	if err := b.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := b.AddEdge(0, 1, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := b.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := b.AddEdge(0, 1, 0); err != nil {
		t.Errorf("zero weight should be silently ignored: %v", err)
	}
	if g := b.Build(); g.NumEdges() != 0 {
		t.Errorf("zero-weight edge materialized: %d edges", g.NumEdges())
	}
}

func TestIsolates(t *testing.T) {
	b := NewBuilder(true)
	b.AddNodes(5)
	b.MustAddEdge(0, 1, 1)
	g := b.Build()
	if got := g.NumIsolates(); got != 3 {
		t.Errorf("NumIsolates = %d, want 3", got)
	}
	if got := g.NumConnected(); got != 2 {
		t.Errorf("NumConnected = %d, want 2", got)
	}
	iso := g.Isolates()
	if len(iso) != 3 || iso[0] != 2 || iso[2] != 4 {
		t.Errorf("Isolates = %v, want [2 3 4]", iso)
	}
}

func TestSubgraphPreservesNodes(t *testing.T) {
	g := buildTriangle(t, true)
	sub := Selection{G: g, IDs: []int32{0}}.Graph()
	if sub.NumNodes() != 3 {
		t.Errorf("node set shrank: %d", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", sub.NumEdges())
	}
	if sub.NodeID("c") != g.NodeID("c") {
		t.Error("labels lost in Selection.Graph")
	}
}

func TestFilterEdges(t *testing.T) {
	g := buildTriangle(t, false)
	sub := g.FilterEdges(func(id int, e Edge) bool { return e.Weight >= 2 })
	if sub.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", sub.NumEdges())
	}
	for _, e := range sub.Edges() {
		if e.Weight < 2 {
			t.Errorf("edge %+v should have been filtered", e)
		}
	}
}

func TestUndirectedView(t *testing.T) {
	b := NewBuilder(true)
	u, v := b.AddNode("u"), b.AddNode("v")
	b.MustAddEdge(u, v, 3)
	b.MustAddEdge(v, u, 4)
	g := b.Build()
	ug := g.Undirected()
	if ug.Directed() {
		t.Fatal("still directed")
	}
	if ug.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", ug.NumEdges())
	}
	if w, _ := ug.Weight(u, v); w != 7 {
		t.Errorf("merged weight = %v, want 7", w)
	}
	und := buildTriangle(t, false)
	if und.Undirected() != und {
		t.Error("Undirected() of undirected graph should be identity")
	}
}

func TestWeakComponents(t *testing.T) {
	b := NewBuilder(true)
	b.AddNodes(6)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(3, 4, 1)
	g := b.Build()
	labels, count := g.WeakComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] || labels[5] == labels[0] {
		t.Errorf("labels = %v", labels)
	}
	if g.IsWeaklyConnected() {
		t.Error("disconnected graph reported connected")
	}
	if got := g.LargestComponentSize(); got != 3 {
		t.Errorf("LargestComponentSize = %d, want 3", got)
	}
	tri := buildTriangle(t, true)
	if !tri.IsWeaklyConnected() {
		t.Error("triangle reported disconnected")
	}
}

func TestEdgeSetAndWeightMap(t *testing.T) {
	g := buildTriangle(t, false)
	set := g.EdgeSet()
	if len(set) != 3 {
		t.Fatalf("EdgeSet size = %d, want 3", len(set))
	}
	// Keys normalized regardless of insertion order.
	if !set[EdgeKey{0, 2}] {
		t.Errorf("missing normalized key {0,2}: %v", set)
	}
	wm := g.WeightMap()
	if wm[EdgeKey{0, 1}] != 1 {
		t.Errorf("WeightMap[{0,1}] = %v, want 1", wm[EdgeKey{0, 1}])
	}
}

func TestReadWriteCSVRoundTrip(t *testing.T) {
	in := "src,dst,weight\na,b,2\nb,c,3.5\n# comment\nc,a,1\n"
	g, err := ReadGraph(strings.NewReader(in), ReadOptions{Format: "csv", Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	var sb strings.Builder
	if err := g.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(strings.NewReader(sb.String()), ReadOptions{Format: "csv", Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.TotalWeight() != g.TotalWeight() {
		t.Errorf("round trip mismatch: %v vs %v", g2, g)
	}
	if w, ok := g2.Weight(g2.NodeID("b"), g2.NodeID("c")); !ok || w != 3.5 {
		t.Errorf("Weight(b,c) = %v,%v", w, ok)
	}
}

func TestReadCSVWhitespaceAndErrors(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("a b 1\nb c 2\n"), ReadOptions{Format: "csv"})
	if err != nil {
		t.Fatalf("space-separated: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, err := ReadGraph(strings.NewReader("a,b\n"), ReadOptions{Format: "csv"}); err == nil {
		t.Error("two-field line accepted")
	}
	if _, err := ReadGraph(strings.NewReader("a,b,1\nc,d,bogus\n"), ReadOptions{Format: "csv"}); err == nil {
		t.Error("bad weight on non-header line accepted")
	}
}

// Property: for random directed graphs, sum of out-strengths ==
// sum of in-strengths == total weight, and every edge appears exactly
// once in its source's Out and target's In.
func TestQuickStrengthConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := NewBuilder(true)
		b.AddNodes(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			b.MustAddEdge(u, v, float64(1+rng.Intn(9)))
		}
		g := b.Build()
		var outSum, inSum float64
		for u := 0; u < n; u++ {
			outSum += g.OutStrength(u)
			inSum += g.InStrength(u)
		}
		if math.Abs(outSum-g.TotalWeight()) > 1e-9 || math.Abs(inSum-g.TotalWeight()) > 1e-9 {
			return false
		}
		for id, e := range g.Edges() {
			foundOut, foundIn := false, false
			for _, a := range g.Out(int(e.Src)) {
				if a.EdgeID == int32(id) {
					foundOut = true
				}
			}
			for _, a := range g.In(int(e.Dst)) {
				if a.EdgeID == int32(id) {
					foundIn = true
				}
			}
			if !foundOut || !foundIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
