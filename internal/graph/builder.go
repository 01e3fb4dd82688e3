package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math"
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
	c := Builder{directed: b.directed, labels: slices.Clone(b.labels), index: maps.Clone(b.index), edges: slices.Clone(b.edges)}
	return c.buildOwned()
}

// buildOwned finalizes the graph like Build, but transfers the label
// slice, label index and edge buffer into the Graph instead of copying
// them, merging the edge buffer in place. The Builder must not be used
// afterwards. The edge-list codec calls it directly: its builder is
// always single-use, and the copies would dominate large ingests.
func (b *Builder) buildOwned() *Graph {
	n := len(b.labels)
	edges := mergeEdges(b.edges)
	if cap(edges)-len(edges) > len(edges)/8 {
		edges = slices.Clone(edges) // duplicates merged: drop the slack
	}
	g := &Graph{
		directed: b.directed,
		labels:   b.labels,
		index:    b.index,
		edges:    edges,
	}
	b.labels, b.index, b.edges = nil, nil, nil
	g.buildCSR(n)
	return g
}

// presize reserves edge capacity for an edge list of totalBytes whose
// first chunk is sample, and returns the expected row count: the
// sample's line density extrapolated to totalBytes, which upper-bounds
// the edge count. A small estimate leaves the lazy default. Labels are
// not sized from lines, since nodes recur across them: sizeIndex sizes
// the index from the labels the first rows bring.
func (b *Builder) presize(totalBytes int, sample []byte) float64 {
	rows := max(float64(totalBytes)/float64(len(sample)), 1) * float64(bytes.Count(sample, []byte{'\n'})+1)
	if rows >= 1<<12 {
		b.edges = make([]Edge, 0, int(rows))
	}
	return rows
}

// sizeIndex regrows the label index, once, to the label count that
// the input's first rows predict for all of it: halfLabels labels
// after the first half of the sample, len(b.labels) after all of it,
// in an input of halves such half samples. New labels per half sample
// are taken to change geometrically at the rate the two halves show:
// flat while labels keep arriving (rows grouped by a growing node),
// falling as they run out (draws from a fixed label set). A prediction
// short of twice the current count, or of 4096 labels, leaves the
// index alone.
func (b *Builder) sizeIndex(halfLabels int, halves float64) {
	h, d := float64(halfLabels), float64(len(b.labels))
	if h == 0 {
		return
	}
	est := h * halves
	if q := (d - h) / h; q < 1 {
		est = h * (1 - math.Pow(q, halves)) / (1 - q)
	}
	if est < max(2*d, 1<<12) {
		return
	}
	index := make(map[string]int32, int(est))
	//lint:detiter-ok copying into another map; insertion order is irrelevant
	for k, v := range b.index {
		index[k] = v
	}
	b.index = index
}

// mergeEdges puts edges in canonical order — sorted by (Src, Dst),
// duplicates merged by summing weights — reusing edges' storage, and
// returns the merged prefix. The sort is stable, so duplicate
// contributions accumulate in insertion order: float addition is not
// associative, and this keeps merged weights bit-identical to per-pair
// accumulation.
func mergeEdges(edges []Edge) []Edge {
	out := edges[:0]
	for _, e := range sortEdges(edges) {
		if k := len(out); k > 0 && out[k-1].Src == e.Src && out[k-1].Dst == e.Dst {
			out[k-1].Weight += e.Weight
		} else {
			out = append(out, e)
		}
	}
	return out
}

// sortEdges stably sorts edges by (Src, Dst) and returns them sorted,
// in edges itself or in the one scratch slice the sort allocates. It
// is an LSD radix sort over the key Src<<nb | Dst, with nb the bits
// of the largest node ID. Digits are about as wide as the input is
// long (8 to 16 bits), so the count table never dwarfs the input: two
// passes cover a 20k-edge body over 1,000 nodes (one per endpoint) and
// a million edges over up to 64k nodes.
func sortEdges(edges []Edge) []Edge {
	var maxID int32
	for _, e := range edges {
		maxID = max(maxID, e.Src, e.Dst)
	}
	if maxID == 0 {
		return edges // no edges: a self-loop-free edge has an ID above 0
	}
	nb := uint(bits.Len32(uint32(maxID)))
	keyBits := 2 * nb
	width := min(max(uint(bits.Len(uint(len(edges)))), 8), 16)
	passes := (keyBits + width - 1) / width
	width = (keyBits + passes - 1) / passes
	key := func(e Edge) uint64 { return uint64(uint32(e.Src))<<nb | uint64(uint32(e.Dst)) }
	mask := uint64(1)<<width - 1
	src, dst := edges, make([]Edge, len(edges))
	count := make([]int32, 1<<width)
	for shift := uint(0); shift < keyBits; shift += width {
		clear(count)
		for _, e := range src {
			count[key(e)>>shift&mask]++
		}
		if int(count[key(src[0])>>shift&mask]) == len(src) {
			continue // all edges share this digit: the pass is a no-op
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, e := range src {
			d := key(e) >> shift & mask
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	return src
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
