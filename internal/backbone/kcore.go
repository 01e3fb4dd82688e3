package backbone

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/graph"
)

// KCore implements the classic k-core decomposition backbone the paper
// lists among the traditional approaches (Section II, citing Seidman
// 1983): nodes with degree below k are recursively removed, and the
// backbone keeps the edges among the surviving nodes.
//
// As a Scorer, each edge receives the core number of its weaker
// endpoint — the largest k for which the edge survives in the k-core —
// so Threshold(k-1) yields exactly the k-core backbone and TopK
// comparisons against the other methods are meaningful.
type KCore struct{}

// NewKCore returns a KCore scorer.
func NewKCore() *KCore { return &KCore{} }

// Name implements filter.Scorer.
func (*KCore) Name() string { return "kcore" }

// CoreNumbers returns each node's core number: the largest k such that
// the node belongs to the k-core (computed on the undirected view).
// The peeling implementation runs in O(E) using bucketed degrees.
func CoreNumbers(g *graph.Graph) []int {
	u := g.Undirected()
	n := u.NumNodes()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = u.OutDegree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort nodes by degree (Batagelj-Zaveršnik peeling).
	binStart := make([]int, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for i := 1; i <= maxDeg+1; i++ {
		binStart[i] += binStart[i-1]
	}
	pos := make([]int, n)  // position of node in vert
	vert := make([]int, n) // nodes sorted by current degree
	fill := append([]int(nil), binStart...)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}
	core := make([]int, n)
	cur := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = cur[v]
		for _, a := range u.Out(v) {
			w := int(a.To)
			if cur[w] > cur[v] {
				// Move w one bucket down: swap it with the first node of
				// its current bucket, then shrink the bucket.
				dw := cur[w]
				first := binStart[dw]
				fv := vert[first]
				if fv != w {
					vert[pos[w]], vert[first] = fv, w
					pos[fv], pos[w] = pos[w], first
				}
				binStart[dw]++
				cur[w]--
			}
		}
	}
	return core
}

// Scores assigns each edge the minimum core number of its endpoints.
// The table refers to the undirected view for directed inputs, since
// the decomposition is degree-based.
//
//lint:ctxflow-ok filter.Scorer implementation: Method.ScoreCtx checks ctx at its boundaries
func (k *KCore) Scores(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("backbone: empty graph")
	}
	u := g.Undirected()
	core := CoreNumbers(u)
	s := &filter.Scores{
		G:      u,
		Score:  make([]float64, u.NumEdges()),
		Method: k.Name(),
	}
	for id, e := range u.Edges() {
		cu, cv := core[e.Src], core[e.Dst]
		if cv < cu {
			cu = cv
		}
		s.Score[id] = float64(cu)
	}
	return s, nil
}
