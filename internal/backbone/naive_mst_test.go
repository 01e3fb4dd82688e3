package backbone

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/graph"
)

// cut extracts the registered method's native backbone at the given
// parameter overrides — the shipped Cut rule, not a restatement of it.
func cut(t *testing.T, name string, g *graph.Graph, overrides filter.Params) *graph.Graph {
	t.Helper()
	m, err := filter.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Resolve(overrides)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := m.BackboneCtx(context.Background(), g, p, -1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Graph()
}

func line(t *testing.T, weights ...float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(false)
	b.AddNodes(len(weights) + 1)
	for i, w := range weights {
		b.MustAddEdge(i, i+1, w)
	}
	return b.Build()
}

func TestNaiveThreshold(t *testing.T) {
	g := line(t, 1, 5, 3, 10)
	bb := cut(t, "nt", g, filter.Params{"threshold": 3})
	if bb.NumEdges() != 2 {
		t.Fatalf("kept %d edges, want 2 (weights 5 and 10)", bb.NumEdges())
	}
	for _, e := range bb.Edges() {
		if e.Weight <= 3 {
			t.Errorf("edge with weight %v survived threshold 3", e.Weight)
		}
	}
	if bb.NumNodes() != g.NumNodes() {
		t.Error("node set not preserved")
	}
	if _, err := NewNaive().Scores(graph.NewBuilder(true).Build()); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestNaiveTopK(t *testing.T) {
	g := line(t, 1, 5, 3, 10)
	s, err := NewNaive().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	top2 := s.TopK(2)
	wm := top2.WeightMap()
	if len(wm) != 2 {
		t.Fatalf("TopK(2) kept %d", len(wm))
	}
	for _, e := range top2.Edges() {
		if e.Weight != 5 && e.Weight != 10 {
			t.Errorf("unexpected edge weight %v in top-2", e.Weight)
		}
	}
	if got := s.TopK(100).NumEdges(); got != 4 {
		t.Errorf("TopK beyond m kept %d", got)
	}
	if got := s.TopK(-1).NumEdges(); got != 0 {
		t.Errorf("TopK(-1) kept %d", got)
	}
	if got := s.TopFraction(0.5).NumEdges(); got != 2 {
		t.Errorf("TopFraction(0.5) kept %d", got)
	}
	if s.CountAbove(3) != 2 {
		t.Errorf("CountAbove(3) = %d", s.CountAbove(3))
	}
	if th := s.ThresholdForK(2); th != 5 {
		t.Errorf("ThresholdForK(2) = %v, want 5", th)
	}
}

func TestMSTKnownTree(t *testing.T) {
	// Square with diagonal: MST must pick the heaviest three edges that
	// form a tree.
	b := graph.NewBuilder(false)
	b.AddNodes(4)
	b.MustAddEdge(0, 1, 10)
	b.MustAddEdge(1, 2, 9)
	b.MustAddEdge(2, 3, 8)
	b.MustAddEdge(3, 0, 1)
	b.MustAddEdge(0, 2, 2)
	g := b.Build()
	tree, err := NewMST().Extract(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEdges() != 3 {
		t.Fatalf("tree has %d edges, want 3", tree.NumEdges())
	}
	var total float64
	for _, e := range tree.Edges() {
		total += e.Weight
	}
	if total != 27 {
		t.Errorf("tree weight %v, want 27 (10+9+8)", total)
	}
	if !tree.IsWeaklyConnected() {
		t.Error("spanning tree not connected")
	}
}

func TestMSTForestOnDisconnected(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddNodes(5)
	b.MustAddEdge(0, 1, 2)
	b.MustAddEdge(1, 2, 3)
	b.MustAddEdge(0, 2, 1)
	b.MustAddEdge(3, 4, 7)
	g := b.Build()
	forest, err := NewMST().Extract(g)
	if err != nil {
		t.Fatal(err)
	}
	if forest.NumEdges() != 3 {
		t.Fatalf("forest edges = %d, want 3 (2 + 1)", forest.NumEdges())
	}
	if _, ok := forest.Weight(0, 2); ok {
		t.Error("weakest cycle edge (0,2) should be dropped")
	}
}

func TestMSTDirectedSymmetrizes(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddNodes(3)
	b.MustAddEdge(0, 1, 2)
	b.MustAddEdge(1, 0, 2) // merged: 4
	b.MustAddEdge(1, 2, 3)
	b.MustAddEdge(2, 0, 1)
	g := b.Build()
	tree, err := NewMST().Extract(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Directed() {
		t.Error("MST of directed input should be undirected")
	}
	if w, ok := tree.Weight(0, 1); !ok || w != 4 {
		t.Errorf("merged edge weight = %v,%v, want 4,true", w, ok)
	}
	if _, ok := tree.Weight(2, 0); ok {
		t.Error("weakest edge survived")
	}
}

// Properties of the maximum spanning forest on random connected graphs:
// exactly n-1 edges, spans all nodes, and no forest has larger total
// weight (verified against brute force on small n).
func TestQuickMSTIsMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5) // small enough for brute force
		b := graph.NewBuilder(false)
		b.AddNodes(n)
		type pair struct{ u, v int }
		var pairs []pair
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, pair{u, v})
			}
		}
		for _, p := range pairs {
			b.MustAddEdge(p.u, p.v, 1+float64(rng.Intn(50)))
		}
		g := b.Build()
		tree, err := NewMST().Extract(g)
		if err != nil || tree.NumEdges() != n-1 || !tree.IsWeaklyConnected() {
			return false
		}
		var treeW float64
		for _, e := range tree.Edges() {
			treeW += e.Weight
		}
		// Brute force: every subset of size n-1 that is a spanning tree.
		m := g.NumEdges()
		edges := g.Edges()
		best := 0.0
		for mask := 0; mask < 1<<m; mask++ {
			if popcount(mask) != n-1 {
				continue
			}
			sub := g.FilterEdges(func(id int, _ graph.Edge) bool { return mask&(1<<id) != 0 })
			// A spanning tree must cover every node, not merely be
			// connected among non-isolates.
			if sub.NumIsolates() > 0 || !sub.IsWeaklyConnected() {
				continue
			}
			var w float64
			for id := 0; id < m; id++ {
				if mask&(1<<id) != 0 {
					w += edges[id].Weight
				}
			}
			if w > best {
				best = w
			}
		}
		return treeW == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
