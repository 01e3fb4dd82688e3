package graph

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Adding the same (src, dst) pair repeatedly sums the weights, which is
// the natural semantics for count data. Self-loops are rejected: the
// backboning null models are defined on interactions between distinct
// nodes (the paper's case study explicitly keeps same-occupation
// switchers out of the network, on the matrix diagonal).
//
// Edges are buffered in a flat append-only slice and deduplicated at
// Build time by a stable sort + adjacent merge, so no per-edge hashing
// happens anywhere on the build path. The stable sort keeps duplicate
// contributions in insertion order, making the merged weights
// bit-identical to a hash-map accumulation.
type Builder struct {
	directed bool
	labels   []string
	index    map[string]int32
	edges    []Edge
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{
		directed: directed,
		index:    make(map[string]int32),
	}
}

// AddNode ensures a node with the given label exists and returns its ID.
// Labels must be unique; the empty label is allowed but not indexed.
func (b *Builder) AddNode(label string) int {
	if label != "" {
		if id, ok := b.index[label]; ok {
			return int(id)
		}
	}
	id := int32(len(b.labels))
	b.labels = append(b.labels, label)
	if label != "" {
		b.index[label] = id
	}
	return int(id)
}

// AddNodes ensures at least n anonymous nodes exist (IDs 0..n-1).
func (b *Builder) AddNodes(n int) {
	for len(b.labels) < n {
		b.labels = append(b.labels, "")
	}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// AddEdge adds weight w to the edge between nodes u and v (by ID).
// Nodes must already exist. Negative weights and self-loops are errors;
// zero weights are ignored (absence of interaction).
func (b *Builder) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(b.labels) || v < 0 || v >= len(b.labels) {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (have %d nodes)", u, v, len(b.labels))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d not allowed", u)
	}
	if w < 0 || w != w {
		return fmt.Errorf("graph: invalid weight %v on edge (%d,%d)", w, u, v)
	}
	if w == 0 {
		return nil
	}
	if !b.directed && u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{Src: int32(u), Dst: int32(v), Weight: w})
	return nil
}

// AddEdgeLabels is AddEdge keyed by node labels, creating nodes on demand.
func (b *Builder) AddEdgeLabels(src, dst string, w float64) error {
	return b.AddEdge(b.AddNode(src), b.AddNode(dst), w)
}

// MustAddEdge is AddEdge but panics on error. For use in tests and
// generators where inputs are constructed to be valid.
func (b *Builder) MustAddEdge(u, v int, w float64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// Build finalizes the graph. The Builder may be reused afterwards, but
// further additions do not affect the returned Graph.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	g := &Graph{
		directed: b.directed,
		labels:   append([]string(nil), b.labels...),
		index:    make(map[string]int32, len(b.index)),
		edges:    mergeEdges(b.edges),
	}
	//lint:detiter-ok copying into another map; insertion order is irrelevant
	for k, v := range b.index {
		g.index[k] = v
	}
	g.buildCSR(n)
	return g
}

// buildOwned finalizes the graph like Build, but transfers the label
// slice, label index and edge buffer into the Graph instead of copying
// them. The Builder must not be used afterwards. It exists for the
// edge-list codec, where the builder is always single-use and the index
// copy would dominate large ingests.
func (b *Builder) buildOwned() *Graph {
	n := len(b.labels)
	g := &Graph{
		directed: b.directed,
		labels:   b.labels,
		index:    b.index,
		edges:    mergeEdges(b.edges),
	}
	b.labels, b.index, b.edges = nil, nil, nil
	g.buildCSR(n)
	return g
}

// presize reserves index and edge capacity for an edge list of
// totalBytes whose first chunk is sample: the sample's line density
// extrapolates to an expected total line count, which upper-bounds
// both the edge count and (in practice) the unique label count.
// A zero or small estimate leaves the lazy defaults in place.
func (b *Builder) presize(totalBytes int, sample []byte) {
	if totalBytes <= len(sample) || len(sample) == 0 {
		totalBytes = len(sample)
	}
	lines := bytes.Count(sample, []byte{'\n'}) + 1
	est := int(float64(totalBytes) / float64(len(sample)) * float64(lines))
	if est < 1<<12 {
		return
	}
	b.index = make(map[string]int32, est)
	b.edges = make([]Edge, 0, est)
	b.labels = make([]string, 0, est)
}

// edgeRec is a sortable buffered edge: the endpoint pair packed into
// one comparable word, plus the insertion index and the weight.
type edgeRec struct {
	key uint64 // Src<<32 | Dst — node IDs are non-negative int32s
	idx int32  // insertion order; tie-break makes the sort stable
	w   float64
}

// mergeEdges returns the canonical edge slice — sorted by (Src, Dst),
// duplicates merged by summing weights — without touching the input.
// The sort is stable in insertion order, so duplicate contributions
// accumulate in that order: float addition is not associative, and
// this keeps merged weights bit-identical to per-pair accumulation.
//
// Sort keys pack (Src, Dst) into the fewest bits that hold the largest
// node ID, so the radix sort runs the fewest 16-bit passes that cover
// the actual key range (2 passes for graphs under 64k nodes, 3 up to
// 16M) instead of a full 64-bit sort.
func mergeEdges(edges []Edge) []Edge {
	recs := make([]edgeRec, len(edges))
	var maxID int32
	for _, e := range edges {
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	nb := uint(bits.Len32(uint32(maxID)))
	mask := uint64(1)<<nb - 1
	for i, e := range edges {
		recs[i] = edgeRec{key: uint64(uint32(e.Src))<<nb | uint64(uint32(e.Dst)), idx: int32(i), w: e.Weight}
	}
	sortEdgeRecs(recs, 2*nb)
	out := make([]Edge, 0, len(recs))
	prev := ^uint64(0)
	for _, r := range recs {
		if k := len(out); k > 0 && prev == r.key {
			out[k-1].Weight += r.w
		} else {
			out = append(out, Edge{Src: int32(r.key >> nb), Dst: int32(r.key & mask), Weight: r.w})
			prev = r.key
		}
	}
	return out
}

// sortEdgeRecs orders recs by key, keeping equal keys in insertion
// order. keyBits bounds the highest set bit of any key. Small inputs
// use a comparison sort; large ones an LSD radix sort over 16-bit
// digits, which is stable by construction and several times faster on
// million-edge buffers.
func sortEdgeRecs(recs []edgeRec, keyBits uint) {
	if len(recs) < 1<<13 {
		slices.SortFunc(recs, func(a, b edgeRec) int {
			if a.key != b.key {
				if a.key < b.key {
					return -1
				}
				return 1
			}
			return int(a.idx - b.idx)
		})
		return
	}
	const radix = 1 << 16
	src, dst := recs, make([]edgeRec, len(recs))
	count := make([]int32, radix)
	for shift := uint(0); shift < keyBits; shift += 16 {
		clear(count)
		for i := range src {
			count[(src[i].key>>shift)&(radix-1)]++
		}
		if int(count[(src[0].key>>shift)&(radix-1)]) == len(src) {
			continue // all records share this digit: pass is a no-op
		}
		sum := int32(0)
		for d := range count {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := (src[i].key >> shift) & (radix - 1)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if len(recs) > 0 && &src[0] != &recs[0] {
		copy(recs, src)
	}
}

// buildCSR assembles adjacency, strengths and the isolate count from
// g.edges, which must already be canonical (sorted by (Src, Dst), no
// duplicates). It is shared by Build and Selection.Graph. The three phases are
// separate methods so a delta materialization (delta.go) can build
// offsets and strengths eagerly while deferring the arc scatter until
// an accessor actually walks adjacency.
func (g *Graph) buildCSR(n int) {
	g.computeOffsets(n)
	g.accumulate(n)
	g.scatterArcs()
}

// computeOffsets builds the CSR offset arrays (counting pass plus
// prefix sum) from g.edges.
func (g *Graph) computeOffsets(n int) {
	g.outOff = make([]int32, n+1)
	if g.directed {
		g.inOff = make([]int32, n+1)
		for _, e := range g.edges {
			g.outOff[e.Src+1]++
			g.inOff[e.Dst+1]++
		}
		for u := 0; u < n; u++ {
			g.outOff[u+1] += g.outOff[u]
			g.inOff[u+1] += g.inOff[u]
		}
	} else {
		for _, e := range g.edges {
			g.outOff[e.Src+1]++
			g.outOff[e.Dst+1]++
		}
		for u := 0; u < n; u++ {
			g.outOff[u+1] += g.outOff[u]
		}
	}
}

// accumulate folds strengths, the global total and the isolate count
// from g.edges in canonical order; offsets must already exist. The fold
// order is part of the package's bit-identity contract: each node's
// strength is the left fold of its own incident edge weights in
// canonical (Src, Dst) order — independent of every other node's edges
// — and the total is the left fold over all edges. delta.go reproduces
// the per-node fold for dirty nodes and refolds the total in full.
func (g *Graph) accumulate(n int) {
	g.outStrength = make([]float64, n)
	g.inStrength = make([]float64, n)
	if g.directed {
		for _, e := range g.edges {
			g.outStrength[e.Src] += e.Weight
			g.inStrength[e.Dst] += e.Weight
			g.total += e.Weight
		}
	} else {
		for _, e := range g.edges {
			g.outStrength[e.Src] += e.Weight
			g.outStrength[e.Dst] += e.Weight
			g.total += 2 * e.Weight
		}
		copy(g.inStrength, g.outStrength)
	}
	for u := 0; u < n; u++ {
		if g.OutDegree(u) == 0 && g.InDegree(u) == 0 {
			g.isolates++
		}
	}
}

// scatterArcs allocates and fills the arc arrays from g.edges and the
// offsets computeOffsets built.
//
// Arc ordering invariant: every node's arc range is sorted by To.
// Directed out-arcs inherit it from the edge order; directed in-arcs
// are scattered in edge order, so each node collects origins in
// ascending Src order. For undirected graphs a node u's incident arcs
// split into destinations below u (edges where u is Dst) and above u
// (edges where u is Src) — scattering all Dst-side arcs before all
// Src-side arcs therefore yields each range sorted, with no per-node
// sorting pass.
func (g *Graph) scatterArcs() {
	n := len(g.outOff) - 1
	m := len(g.edges)
	if g.directed {
		arcs := make([]Arc, m)
		inArcs := make([]Arc, m)
		outNext := append([]int32(nil), g.outOff[:n]...)
		inNext := append([]int32(nil), g.inOff[:n]...)
		for id, e := range g.edges {
			arcs[outNext[e.Src]] = Arc{To: e.Dst, EdgeID: int32(id), Weight: e.Weight}
			outNext[e.Src]++
			inArcs[inNext[e.Dst]] = Arc{To: e.Src, EdgeID: int32(id), Weight: e.Weight}
			inNext[e.Dst]++
		}
		g.arcs, g.inArcs = arcs, inArcs
	} else {
		arcs := make([]Arc, 2*m)
		next := append([]int32(nil), g.outOff[:n]...)
		for id, e := range g.edges { // Dst-side arcs first: To < node
			arcs[next[e.Dst]] = Arc{To: e.Src, EdgeID: int32(id), Weight: e.Weight}
			next[e.Dst]++
		}
		for id, e := range g.edges { // then Src-side arcs: To > node
			arcs[next[e.Src]] = Arc{To: e.Dst, EdgeID: int32(id), Weight: e.Weight}
			next[e.Src]++
		}
		g.arcs = arcs
	}
}

// FromEdges builds a graph over n anonymous nodes from an edge slice.
// It panics on invalid edges; intended for generators and tests.
//
//lint:ctxflow-ok generator/test constructor: one tight O(m) pass, not a served pipeline stage
func FromEdges(directed bool, n int, edges []Edge) *Graph {
	b := NewBuilder(directed)
	b.AddNodes(n)
	for _, e := range edges {
		b.MustAddEdge(int(e.Src), int(e.Dst), e.Weight)
	}
	return b.Build()
}
