package graph

// Subgraph returns a copy of g restricted to the edges whose canonical
// ID has keep[id] == true, preserving the full node set (so coverage —
// the share of nodes left non-isolated — can be measured on the
// result). keep must have length g.NumEdges().
//
// This is the allocation-light extraction path behind FilterEdges,
// the mask-building extractors (mst, ds) and the Scores pruners: the kept edges are already
// canonical (sorted by (Src, Dst), deduplicated, weights final), so the
// subgraph is assembled straight into CSR form with zero hashing, and
// the label slice and label index are shared with g (both are immutable
// after construction).
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) Subgraph(keep []bool) *Graph {
	kept := 0
	for id := range g.edges {
		if keep[id] {
			kept++
		}
	}
	edges := make([]Edge, 0, kept)
	for id, e := range g.edges {
		if keep[id] {
			edges = append(edges, e)
		}
	}
	return g.SubgraphEdges(edges)
}

// SubgraphEdges returns a copy of g containing exactly the given edges,
// which must be a subsequence of g.Edges() (canonical order, no
// duplicates); the result takes ownership of the slice. It is the fused
// fast path behind Scores.Threshold — callers that already walk a
// per-edge criterion collect the survivors directly instead of paying
// for a keep mask plus two more O(m) passes over the edge slice.
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) SubgraphEdges(edges []Edge) *Graph {
	sub := &Graph{
		directed: g.directed,
		labels:   g.labels,
		index:    g.index,
		lazy:     g.lazy,
		edges:    edges,
	}
	sub.buildCSR(g.NumNodes())
	return sub
}

// FilterEdges returns a copy of g containing only edges for which pred
// returns true, preserving the full node set.
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) FilterEdges(pred func(id int, e Edge) bool) *Graph {
	mask := make([]bool, len(g.edges))
	for id, e := range g.edges {
		mask[id] = pred(id, e)
	}
	return g.Subgraph(mask)
}

// Undirected returns an undirected view of g: reciprocal directed edges
// are merged by summing their weights. If g is already undirected it is
// returned unchanged. Used by algorithms defined only for undirected
// graphs (Maximum Spanning Tree, High Salience Skeleton).
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g
	}
	b := NewBuilder(false)
	b.labels = append([]string(nil), g.labels...)
	//lint:detiter-ok copying into another map; insertion order is irrelevant
	for l, id := range g.labelIndex() {
		b.index[l] = id
	}
	for _, e := range g.edges {
		b.MustAddEdge(int(e.Src), int(e.Dst), e.Weight)
	}
	return b.Build()
}

// UndirectedWeight returns the total weight between u and v regardless
// of direction: the single edge weight for undirected graphs, the sum
// of both arc directions for directed ones. Cross-snapshot joins use it
// when an undirected backbone (HSS and MST symmetrize directed inputs)
// is compared against a directed observation, so year-over-year weights
// stay well defined. O(log min(deg u, deg v)) per call.
func (g *Graph) UndirectedWeight(u, v int) float64 {
	w1, _ := g.Weight(u, v)
	if !g.directed {
		return w1
	}
	w2, _ := g.Weight(v, u)
	return w1 + w2
}

// AlignLabels re-expresses g on ref's node-ID space by matching node
// labels: each edge (u, v) of g becomes (ref.NodeID(label u),
// ref.NodeID(label v)), with weights of label-colliding edges summed by
// the builder as usual. Edges with an endpoint whose label ref does not
// know are dropped — they cannot participate in any ID-keyed
// comparison against ref anyway. Cross-graph criteria (edge-set
// Jaccard, cross-snapshot weight joins) compare by node ID, so two
// graphs read from independent edge lists — whose first-appearance ID
// orders almost always differ — must be aligned first.
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func AlignLabels(ref, g *Graph) *Graph {
	b := NewBuilder(g.directed)
	b.labels = append([]string(nil), ref.labels...)
	//lint:detiter-ok copying into another map; insertion order is irrelevant
	for l, id := range ref.labelIndex() {
		b.index[l] = id
	}
	for _, e := range g.edges {
		u := ref.NodeID(g.Label(int(e.Src)))
		v := ref.NodeID(g.Label(int(e.Dst)))
		if u < 0 || v < 0 {
			continue
		}
		b.MustAddEdge(u, v, e.Weight)
	}
	return b.Build()
}

// EdgeKey uniquely identifies an edge by endpoints for cross-graph
// comparison (Jaccard recovery, stability across years). For undirected
// graphs the key is order-normalized.
type EdgeKey struct{ U, V int32 }

// Key returns the EdgeKey of edge e under g's directedness.
func (g *Graph) Key(e Edge) EdgeKey {
	if !g.directed && e.Src > e.Dst {
		return EdgeKey{e.Dst, e.Src}
	}
	return EdgeKey{e.Src, e.Dst}
}

// EdgeSet returns the set of edge keys present in g.
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) EdgeSet() map[EdgeKey]bool {
	set := make(map[EdgeKey]bool, len(g.edges))
	for _, e := range g.edges {
		set[g.Key(e)] = true
	}
	return set
}

// WeightMap returns edge weights keyed by EdgeKey.
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) WeightMap() map[EdgeKey]float64 {
	m := make(map[EdgeKey]float64, len(g.edges))
	for _, e := range g.edges {
		m[g.Key(e)] = e.Weight
	}
	return m
}
