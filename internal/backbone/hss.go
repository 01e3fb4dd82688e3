package backbone

import (
	"container/heap"
	"fmt"

	"repro/internal/filter"
	"repro/internal/graph"
)

// HSS implements the High Salience Skeleton of Grady, Thiemann &
// Brockmann (Nature Communications 2012). For every node r the
// shortest-path tree (SPT) rooted at r is computed on effective
// distances 1/w (strong edges are short). The salience of an edge is
// the share of all SPTs that contain it. Empirically salience is
// bimodal — edges sit near 0 or near 1 — and the skeleton keeps the
// high-salience edges.
//
// HSS is defined structurally on undirected graphs; directed inputs are
// symmetrized. Its cost is one Dijkstra per node, O(V·E·logV) overall,
// which is why the paper could not run it beyond a few thousand edges
// (Section V-G) — this implementation faithfully reproduces that
// asymptotic behaviour.
type HSS struct{}

// NewHSS returns an HSS scorer.
func NewHSS() *HSS { return &HSS{} }

// Name implements filter.Scorer.
func (*HSS) Name() string { return "hss" }

// Scores returns per-edge salience in [0, 1] on the undirected view of
// g. For directed inputs the returned Scores table refers to the
// symmetrized graph (reciprocal weights merged), since salience is
// undefined per direction.
func (h *HSS) Scores(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("backbone: empty graph")
	}
	u := g.Undirected()
	n := u.NumNodes()
	counts := make([]int32, u.NumEdges())

	dist := make([]float64, n)
	parentEdge := make([]int32, n)
	visited := make([]bool, n)
	for root := 0; root < n; root++ {
		dijkstraSPT(u, root, dist, parentEdge, visited)
		for v := 0; v < n; v++ {
			if v != root && visited[v] && parentEdge[v] >= 0 {
				counts[parentEdge[v]]++
			}
		}
	}
	s := &filter.Scores{
		G:      u,
		Score:  make([]float64, u.NumEdges()),
		Method: h.Name(),
	}
	for id := range counts {
		s.Score[id] = float64(counts[id]) / float64(n)
	}
	return s, nil
}

// dijkstraSPT computes the shortest-path tree from root over distances
// 1/weight, writing distances, parent edge IDs (-1 for none) and
// visitation flags into the provided scratch slices.
func dijkstraSPT(u *graph.Graph, root int, dist []float64, parentEdge []int32, visited []bool) {
	const inf = 1e308
	for i := range dist {
		dist[i] = inf
		parentEdge[i] = -1
		visited[i] = false
	}
	dist[root] = 0
	pq := &distHeap{items: []distItem{{node: int32(root), dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		v := int(it.node)
		if visited[v] {
			continue
		}
		visited[v] = true
		for _, a := range u.Out(v) {
			w := int(a.To)
			if visited[w] || a.Weight <= 0 {
				continue
			}
			nd := dist[v] + 1/a.Weight
			if nd < dist[w] {
				dist[w] = nd
				parentEdge[w] = a.EdgeID
				heap.Push(pq, distItem{node: a.To, dist: nd})
			}
		}
	}
}

type distItem struct {
	node int32
	dist float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x interface{}) { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
