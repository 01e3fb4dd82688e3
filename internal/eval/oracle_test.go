package eval

import (
	"repro/internal/graph"
	"repro/internal/stats"
)

// The original map-materializing criterion implementations. The CSR
// merge-walks in eval.go replaced them; they stay as property-test
// oracles pinning the merge-walk results bit-identical.

// StabilityOracle is the map-based oracle behind Stability: it
// materializes next's full WeightMap per call, where the production
// path merge-walks the canonical edge slices. Semantics are identical,
// including the both-direction sum when an undirected backbone is
// joined against a directed snapshot.
func StabilityOracle(backbone *graph.Graph, next *graph.Graph) float64 {
	cur, nxt := weightJoinOracle(backbone, next)
	return stats.Spearman(cur, nxt)
}

// weightJoinOracle is WeightJoin through a WeightMap.
func weightJoinOracle(backbone, next *graph.Graph) (cur, nxt []float64) {
	wNext := next.WeightMap()
	mixed := backbone.Directed() != next.Directed()
	for _, e := range backbone.Edges() {
		cur = append(cur, e.Weight)
		if mixed {
			nxt = append(nxt, wNext[graph.EdgeKey{U: e.Src, V: e.Dst}]+wNext[graph.EdgeKey{U: e.Dst, V: e.Src}])
		} else {
			nxt = append(nxt, wNext[backbone.Key(e)])
		}
	}
	return cur, nxt
}

// RestrictEdgesOracle is the map-based oracle behind RestrictEdges: a
// key set over the backbone (both orientations when the backbone is
// undirected) filters the full edge slice.
func RestrictEdgesOracle(full, bb *graph.Graph) []graph.Edge {
	keep := make(map[graph.EdgeKey]bool, bb.NumEdges())
	for _, e := range bb.Edges() {
		k := bb.Key(e)
		keep[k] = true
		if !bb.Directed() {
			keep[graph.EdgeKey{U: k.V, V: k.U}] = true
		}
	}
	var out []graph.Edge
	for _, e := range full.Edges() {
		if keep[full.Key(e)] {
			out = append(out, e)
		}
	}
	return out
}
