// Package eval is the backbone-evaluation subsystem: the paper's three
// quality criteria (problem definition, Section III-A) plus the
// synthetic-recovery measure of Section V-A, and a registry-driven
// engine (engine.go) that grades every backboning method on one graph
// under those criteria:
//
//   - Coverage: share of originally non-isolated nodes that the backbone
//     keeps non-isolated (Topology, Fig 7).
//   - Quality: R² of an OLS prediction restricted to backbone edges,
//     relative to the R² on all edges (Table II).
//   - Stability: Spearman correlation of edge weights across consecutive
//     observations, over backbone edges (Fig 8).
//   - Recovery: Jaccard similarity between the backbone edge set and the
//     true planted edge set (Fig 4).
//
// The criteria are CSR-native: edge-set intersections and cross-snapshot
// weight joins are merge-walks over the graphs' canonical edge slices
// (sorted by (Src, Dst) since the CSR substrate of PR 2), so grading a
// backbone allocates O(1) instead of materializing map[EdgeKey] sets and
// weight maps per call. The original map-based implementations are
// retained in oracle.go as property-test oracles, the same pattern as
// the PR-2 CSR extraction and PR-4 codec oracles.
package eval

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Coverage returns |nodes the backbone's edges touch| / |non-isolated
// nodes in original|. A perfect backbone keeps every node reachable.
// The backbone is a selection — of the original's edges, of its
// undirected view, or of every edge of an extracted graph — so grading
// it never builds it: the all-edges selection reads the count
// precomputed at build time, any other walks its kept edges once.
//
// When the original network has no connected nodes at all the criterion
// is undefined and NaN is returned; JSON surfaces must encode that as
// null (encoding/json rejects NaN — see Float).
func Coverage(original *graph.Graph, backbone graph.Selection) float64 {
	denom := original.NumConnected()
	if denom == 0 {
		return math.NaN()
	}
	return float64(backbone.NumConnected()) / float64(denom)
}

// keyLess orders two canonical edges by their (Src, Dst) endpoint pair —
// the order the graph substrate guarantees for Edges().
func keyLess(a, b graph.Edge) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// EdgeJaccard returns |A ∩ B| / |A ∪ B| between the edge sets of two
// graphs over the same node-ID space. When both graphs share a
// directedness the intersection is a single merge-walk over the two
// canonical (Src, Dst)-sorted edge slices — zero allocations. Comparing
// a symmetrized (undirected) backbone against a directed graph falls
// back to the order-normalized set semantics of the Jaccard oracle.
func EdgeJaccard(a, b *graph.Graph) float64 {
	if a.Directed() != b.Directed() {
		return Jaccard(a.EdgeSet(), b.EdgeSet())
	}
	ea, eb := a.Edges(), b.Edges()
	inter := 0
	i, j := 0, 0
	for i < len(ea) && j < len(eb) {
		switch {
		case ea[i].Src == eb[j].Src && ea[i].Dst == eb[j].Dst:
			inter++
			i++
			j++
		case keyLess(ea[i], eb[j]):
			i++
		default:
			j++
		}
	}
	union := len(ea) + len(eb) - inter
	if union == 0 {
		return math.NaN()
	}
	return float64(inter) / float64(union)
}

// Recovery returns the Jaccard similarity between a backbone's edge set
// and the ground-truth graph's edge set — the paper's Fig-4 quality
// target.
func Recovery(backbone, truth *graph.Graph) float64 {
	return EdgeJaccard(backbone, truth)
}

// WeightJoin appends, for every backbone edge, its weight at time t to
// cur and the same node pair's weight in next (zero when the pair is
// absent — the paper's convention) to nxt, returning the extended
// slices. Callers reuse cur/nxt across calls to keep the join
// allocation-free.
//
// When backbone and next share a directedness the join is one
// merge-walk over the two canonical sorted edge slices. When the
// backbone is undirected but next is directed (HSS and MST symmetrize
// directed inputs) each pair's weight is the sum of both directions,
// looked up by binary search — the semantics year-over-year comparisons
// need (see graph.UndirectedWeight).
//
//lint:ctxflow-ok merge-walk criterion primitive: the eval engine checks ctx between criteria
func WeightJoin(backbone, next *graph.Graph, cur, nxt []float64) ([]float64, []float64) {
	eb := backbone.Edges()
	if backbone.Directed() != next.Directed() {
		for _, e := range eb {
			cur = append(cur, e.Weight)
			nxt = append(nxt, next.UndirectedWeight(int(e.Src), int(e.Dst)))
		}
		return cur, nxt
	}
	en := next.Edges()
	j := 0
	for _, e := range eb {
		for j < len(en) && keyLess(en[j], e) {
			j++
		}
		w := 0.0
		if j < len(en) && en[j].Src == e.Src && en[j].Dst == e.Dst {
			w = en[j].Weight
		}
		cur = append(cur, e.Weight)
		nxt = append(nxt, w)
	}
	return cur, nxt
}

// Stability computes the Spearman rank correlation between the weights
// of the backbone's edges at time t and the same pairs' weights at time
// t+1 (absent pairs count as weight zero), following Section V-F: the
// correlation is calculated "using only the edges present in the
// backbones". Fewer than two backbone edges yield NaN (the correlation
// is undefined); JSON surfaces must encode that as null.
func Stability(backbone *graph.Graph, next *graph.Graph) float64 {
	m := backbone.NumEdges()
	cur := make([]float64, 0, m)
	nxt := make([]float64, 0, m)
	cur, nxt = WeightJoin(backbone, next, cur, nxt)
	return stats.Spearman(cur, nxt)
}

// RestrictEdges returns the edges of full whose node pair survives in
// the backbone — how the Quality regressions restrict their observation
// set. With matching directedness it is a merge-walk over the two
// canonical sorted edge slices; an undirected backbone over a directed
// full graph keeps both orientations of each surviving pair, resolved
// by binary-search membership tests.
//
//lint:ctxflow-ok merge-walk criterion primitive: the eval engine checks ctx between criteria
func RestrictEdges(full, bb *graph.Graph) []graph.Edge {
	out := make([]graph.Edge, 0, bb.NumEdges())
	ef := full.Edges()
	if full.Directed() == bb.Directed() {
		eb := bb.Edges()
		j := 0
		for _, e := range ef {
			for j < len(eb) && keyLess(eb[j], e) {
				j++
			}
			if j < len(eb) && eb[j].Src == e.Src && eb[j].Dst == e.Dst {
				out = append(out, e)
			}
		}
		return out
	}
	for _, e := range ef {
		u, v := int(e.Src), int(e.Dst)
		if !full.Directed() {
			// Normalized full pair vs a directed backbone: membership means
			// the backbone has exactly that orientation (the key-set
			// semantics of the map oracle).
			if _, ok := bb.Weight(u, v); ok {
				// For directed bb, Weight(u,v) checks u→v only when bb is
				// directed — which is the case on this branch.
				out = append(out, e)
			}
			continue
		}
		// Directed full, undirected backbone: Weight is order-insensitive.
		if _, ok := bb.Weight(u, v); ok {
			out = append(out, e)
		}
	}
	return out
}

// QualityResult reports the Table-II quality experiment for one method
// on one network.
type QualityResult struct {
	// R2Full is the OLS fit on every edge of the original network.
	R2Full float64
	// R2Backbone is the fit restricted to backbone edges.
	R2Backbone float64
	// Quality is their ratio: > 1 means the backbone helps prediction.
	Quality float64
	// EdgesFull and EdgesBackbone are the observation counts.
	EdgesFull, EdgesBackbone int
}

// Designer supplies OLS designs for edge sets; *world.Predictors
// satisfies it for the country networks.
type Designer interface {
	Design(dataset string, edges []graph.Edge) (y []float64, xs [][]float64, err error)
}

// Quality runs the paper's Quality criterion: fit the same OLS model on
// the full edge set and on the backbone's edge set, and return the R²
// ratio.
func Quality(d Designer, dataset string, full, backbone *graph.Graph) (*QualityResult, error) {
	yF, xF, err := d.Design(dataset, full.Edges())
	if err != nil {
		return nil, fmt.Errorf("eval: full design: %w", err)
	}
	fitF, err := stats.OLS(yF, xF...)
	if err != nil {
		return nil, fmt.Errorf("eval: full fit: %w", err)
	}
	yB, xB, err := d.Design(dataset, backbone.Edges())
	if err != nil {
		return nil, fmt.Errorf("eval: backbone design: %w", err)
	}
	fitB, err := stats.OLS(yB, xB...)
	if err != nil {
		return nil, fmt.Errorf("eval: backbone fit: %w", err)
	}
	res := &QualityResult{
		R2Full:        fitF.R2,
		R2Backbone:    fitB.R2,
		EdgesFull:     full.NumEdges(),
		EdgesBackbone: backbone.NumEdges(),
	}
	if fitF.R2 > 0 {
		res.Quality = fitB.R2 / fitF.R2
	} else {
		res.Quality = math.NaN()
	}
	return res, nil
}
