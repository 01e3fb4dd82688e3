package backbone

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// DoublyStochastic implements Slater's two-stage backbone (PNAS 2009).
// Stage one rescales the weighted adjacency matrix into a doubly
// stochastic matrix — every row and every column summing to one — by
// Sinkhorn-Knopp alternating normalization. Stage two sorts edges by
// their normalized weight and adds them, strongest first, until the
// backbone holds every node in a single connected component.
//
// Not every matrix admits the transformation (Sinkhorn 1964): any node
// with outgoing but no incoming weight (or vice versa) makes the rescale
// impossible, and sparse support patterns can make the iteration
// diverge. Extract and Scores report these cases as errors — they are
// the "n/a" entries of the paper's Table II.
type DoublyStochastic struct {
	// MaxIter bounds the Sinkhorn-Knopp iterations (default 2000).
	MaxIter int
	// Tol is the max row/column sum deviation accepted as converged
	// (default 1e-8).
	Tol float64
}

// NewDoublyStochastic returns a DS method with default settings.
func NewDoublyStochastic() *DoublyStochastic {
	return &DoublyStochastic{MaxIter: 2000, Tol: 1e-8}
}

// Name implements filter.Scorer and filter.Extractor.
func (*DoublyStochastic) Name() string { return "ds" }

// sinkhorn returns per-node row and column scaling factors such that
// scaled weight r[i]·w_ij·c[j] is doubly stochastic over non-isolated
// nodes, or an error when the transformation is impossible.
func (ds *DoublyStochastic) sinkhorn(g *graph.Graph) (r, c []float64, err error) {
	n := g.NumNodes()
	// Feasibility: every node must either be fully isolated or have both
	// positive in- and out-strength.
	for v := 0; v < n; v++ {
		in, out := g.InStrength(v), g.OutStrength(v)
		if (in == 0) != (out == 0) {
			return nil, nil, fmt.Errorf("backbone: doubly-stochastic transformation not possible: node %d has in-strength %g but out-strength %g", v, in, out)
		}
	}
	maxIter := ds.MaxIter
	if maxIter <= 0 {
		maxIter = 2000
	}
	tol := ds.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	r = make([]float64, n)
	c = make([]float64, n)
	for i := range r {
		r[i], c[i] = 1, 1
	}
	rowSum := make([]float64, n)
	colSum := make([]float64, n)
	apply := func(e graph.Edge, f func(i, j int, w float64)) {
		f(int(e.Src), int(e.Dst), e.Weight)
		if !g.Directed() {
			f(int(e.Dst), int(e.Src), e.Weight)
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		// Row normalization: r[i] <- 1 / sum_j w_ij c[j].
		for i := range rowSum {
			rowSum[i] = 0
		}
		for _, e := range g.Edges() {
			apply(e, func(i, j int, w float64) { rowSum[i] += w * c[j] })
		}
		for i := range r {
			if rowSum[i] > 0 {
				r[i] = 1 / rowSum[i]
			}
		}
		// Column normalization: c[j] <- 1 / sum_i r[i] w_ij.
		for j := range colSum {
			colSum[j] = 0
		}
		for _, e := range g.Edges() {
			apply(e, func(i, j int, w float64) { colSum[j] += r[i] * w })
		}
		for j := range c {
			if colSum[j] > 0 {
				c[j] = 1 / colSum[j]
			}
		}
		// Convergence: all row sums of the rescaled matrix within tol of 1
		// (column sums are exactly 1 right after column normalization).
		for i := range rowSum {
			rowSum[i] = 0
		}
		for _, e := range g.Edges() {
			apply(e, func(i, j int, w float64) { rowSum[i] += r[i] * w * c[j] })
		}
		worst := 0.0
		for v := 0; v < n; v++ {
			if g.OutStrength(v) == 0 {
				continue // isolated: excluded from the matrix
			}
			if d := math.Abs(rowSum[v] - 1); d > worst {
				worst = d
			}
		}
		if worst < tol {
			return r, c, nil
		}
	}
	return nil, nil, fmt.Errorf("backbone: Sinkhorn-Knopp did not converge in %d iterations", maxIter)
}

// Scores returns the doubly-stochastic normalized weight per canonical
// edge (for undirected edges, the larger of the two directions).
//
//lint:ctxflow-ok filter.Scorer implementation: Method.ScoreCtx checks ctx at its boundaries
func (ds *DoublyStochastic) Scores(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("backbone: empty graph")
	}
	r, c, err := ds.sinkhorn(g)
	if err != nil {
		return nil, err
	}
	s := &filter.Scores{
		G:      g,
		Score:  make([]float64, g.NumEdges()),
		Method: ds.Name(),
	}
	for id, e := range g.Edges() {
		v := r[e.Src] * e.Weight * c[e.Dst]
		if !g.Directed() {
			if w := r[e.Dst] * e.Weight * c[e.Src]; w > v {
				v = w
			}
		}
		s.Score[id] = v
	}
	return s, nil
}

// Extract runs the full two-stage algorithm: normalized edges are added
// strongest-first until all non-isolated nodes form a single connected
// component (or edges run out, when the input itself is disconnected).
func (ds *DoublyStochastic) Extract(g *graph.Graph) (*graph.Graph, error) {
	s, err := ds.Scores(g)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(s.Score))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if s.Score[ids[a]] != s.Score[ids[b]] {
			return s.Score[ids[a]] > s.Score[ids[b]]
		}
		return ids[a] < ids[b]
	})
	uf := unionfind.New(g.NumNodes())
	target := 1 + g.NumIsolates() // isolated nodes stay singleton sets
	keep := make([]bool, len(s.Score))
	for _, id := range ids {
		e := g.Edge(id)
		keep[id] = true
		uf.Union(int(e.Src), int(e.Dst))
		if uf.Sets() == target {
			break
		}
	}
	return g.FilterEdges(func(id int, _ graph.Edge) bool { return keep[id] }), nil
}
