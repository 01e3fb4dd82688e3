package backbone

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/unionfind"
)

// MST extracts the Maximum Spanning Tree (a maximum spanning forest when
// the graph is disconnected) with Kruskal's algorithm run on descending
// weights. Directed graphs are first symmetrized by summing reciprocal
// weights, as the spanning-tree problem is defined on undirected graphs.
//
// MST is parameter-free, so it implements filter.Extractor.
type MST struct{}

// NewMST returns an MST extractor.
func NewMST() *MST { return &MST{} }

// Name implements filter.Extractor.
func (*MST) Name() string { return "mst" }

// Extract returns the maximum spanning forest. The result preserves the
// input's full node set; for directed inputs the forest is undirected
// with merged reciprocal weights.
func (m *MST) Extract(g *graph.Graph) (*graph.Graph, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("backbone: empty graph")
	}
	u := g.Undirected()
	ids := make([]int, u.NumEdges())
	for i := range ids {
		ids[i] = i
	}
	edges := u.Edges()
	// Descending weight; ties broken by edge ID for determinism. The
	// paper notes tied weights make the MST non-unique — this picks the
	// lexicographically first.
	sort.SliceStable(ids, func(a, b int) bool {
		if edges[ids[a]].Weight != edges[ids[b]].Weight {
			return edges[ids[a]].Weight > edges[ids[b]].Weight
		}
		return ids[a] < ids[b]
	})
	uf := unionfind.New(u.NumNodes())
	keep := make([]bool, len(edges))
	for _, id := range ids {
		e := edges[id]
		keep[id] = uf.Union(int(e.Src), int(e.Dst))
	}
	return u.FilterEdges(func(id int, _ graph.Edge) bool { return keep[id] }), nil
}
