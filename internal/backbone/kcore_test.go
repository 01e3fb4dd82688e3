package backbone

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/graph"
)

func TestCoreNumbersCliqueWithTail(t *testing.T) {
	// K4 plus a path hanging off it: clique nodes have core 3, the
	// path degrades 1.
	b := graph.NewBuilder(false)
	b.AddNodes(7)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.MustAddEdge(i, j, 1)
		}
	}
	b.MustAddEdge(3, 4, 1)
	b.MustAddEdge(4, 5, 1)
	b.MustAddEdge(5, 6, 1)
	g := b.Build()
	core := CoreNumbers(g)
	want := []int{3, 3, 3, 3, 1, 1, 1}
	for v, w := range want {
		if core[v] != w {
			t.Errorf("core[%d] = %d, want %d", v, core[v], w)
		}
	}
}

func TestKCoreBackbone(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddNodes(6)
	// Triangle (core 2) plus pendant edges (core 1).
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(0, 2, 1)
	b.MustAddEdge(2, 3, 1)
	b.MustAddEdge(3, 4, 1)
	b.MustAddEdge(4, 5, 1)
	g := b.Build()
	bb := cut(t, "kcore", g, filter.Params{"k": 2})
	if bb.NumEdges() != 3 {
		t.Fatalf("2-core kept %d edges, want the triangle", bb.NumEdges())
	}
	for _, e := range bb.Edges() {
		if e.Src > 2 || e.Dst > 2 {
			t.Errorf("non-triangle edge %+v in 2-core", e)
		}
	}
	all := cut(t, "kcore", g, filter.Params{"k": 1})
	if all.NumEdges() != g.NumEdges() {
		t.Errorf("1-core kept %d edges, want all", all.NumEdges())
	}
	if _, err := NewKCore().Scores(graph.NewBuilder(false).Build()); err == nil {
		t.Error("empty graph accepted")
	}
}

// Property: core numbers match a naive recursive-peeling reference.
func TestQuickCoreNumbersAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		b := graph.NewBuilder(false)
		b.AddNodes(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.MustAddEdge(u, v, 1)
			}
		}
		g := b.Build()
		fast := CoreNumbers(g)
		for v := 0; v < n; v++ {
			if fast[v] != naiveCore(g, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// naiveCore returns the largest k such that node v survives repeated
// removal of nodes with degree < k.
func naiveCore(g *graph.Graph, v int) int {
	n := g.NumNodes()
	for k := n; k >= 0; k-- {
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		for changed := true; changed; {
			changed = false
			for u := 0; u < n; u++ {
				if !alive[u] {
					continue
				}
				deg := 0
				for _, a := range g.Out(u) {
					if alive[a.To] {
						deg++
					}
				}
				if deg < k {
					alive[u] = false
					changed = true
				}
			}
		}
		if alive[v] {
			return k
		}
	}
	return 0
}
