package graph

// FilterEdges returns a copy of g containing only edges for which pred
// returns true, preserving the full node set.
//
//lint:ctxflow-ok tight O(m) CSR pass with no I/O; the pipeline checks ctx between stages
func (g *Graph) FilterEdges(pred func(id int, e Edge) bool) *Graph {
	var ids []int32
	for id, e := range g.edges {
		if pred(id, e) {
			ids = append(ids, int32(id))
		}
	}
	return Selection{G: g, IDs: ids}.Graph()
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
