package graph

import (
	"math/bits"
	"sync"
)

// Selection is the edge set a cut keeps over a base graph: the
// ascending canonical edge ids of G it retains. A backbone is served
// from its selection: the encoders walk G's own edge slice and labels
// through the ids, so writing a backbone never builds it as a Graph.
// Graph builds it for the callers that do need one.
type Selection struct {
	G *Graph
	// IDs are canonical edge ids of G, ascending and without
	// duplicates. They are ignored when the selection is G.All().
	IDs []int32
	// all selects every edge of G without listing their ids.
	all bool
	// nodes, when set, holds the bitmap of the nodes the selection
	// touches, marked on first use and shared by every copy.
	nodes *TouchedNodes
}

// TouchedNodes holds a shared selection's touched-node bitmap, marked
// once. The zero value is ready to use.
type TouchedNodes struct {
	once sync.Once
	set  nodeSet
}

// SharedSelection returns the selection of ids over g whose touched
// nodes are marked at most once, into nodes, however many copies of it
// count its nodes or check its labels, concurrently or not: for a
// selection many reads serve, such as a score table's remembered cut.
// ids must be ascending, without duplicates, and never change; nodes
// must be fresh and serve this selection alone.
func SharedSelection(g *Graph, ids []int32, nodes *TouchedNodes) Selection {
	return Selection{G: g, IDs: ids, nodes: nodes}
}

// All returns the selection of every edge of g.
func (g *Graph) All() Selection { return Selection{G: g, all: true} }

// Len returns the number of selected edges.
func (s Selection) Len() int {
	if s.all {
		return len(s.G.edges)
	}
	return len(s.IDs)
}

// ID returns the canonical edge id of the i-th selected edge.
func (s Selection) ID(i int) int32 {
	if s.all {
		return int32(i)
	}
	return s.IDs[i]
}

// Graph builds the selected edges as a graph over G's full node set, so
// coverage — the share of nodes left non-isolated — can be measured on
// the result. The selected edges are already canonical (sorted by
// (Src, Dst), deduplicated, weights final), so they are assembled
// straight into CSR form with zero hashing, and the label slice and
// label index are shared with G (both are immutable after
// construction). The all-edges selection is G itself.
func (s Selection) Graph() *Graph {
	g := s.G
	if s.all {
		return g
	}
	edges := make([]Edge, len(s.IDs))
	for i, id := range s.IDs {
		edges[i] = g.edges[id]
	}
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

// gatherRows is how many selected edges the encoders load at a time.
const gatherRows = 256

// gather returns the selected edges from the lo-th on, at most
// len(batch) of them, copied into batch in one tight loop: for a sparse
// selection the loads are independent cache misses, which the CPU
// overlaps there but which the formatting between them in a per-row
// loop would serialize. The all-edges selection needs no copy.
func (s Selection) gather(batch []Edge, lo int) []Edge {
	hi := min(lo+len(batch), s.Len())
	if s.all {
		return s.G.edges[lo:hi]
	}
	batch = batch[:hi-lo]
	for i, id := range s.IDs[lo:hi] {
		batch[i] = s.G.edges[id]
	}
	return batch
}

// NumConnected returns how many of G's nodes the selected edges touch:
// the non-isolated node count of Graph(), without building it.
func (s Selection) NumConnected() int {
	if s.all {
		return s.G.NumConnected()
	}
	n := 0
	for _, word := range s.touched() {
		n += bits.OnesCount64(word)
	}
	return n
}

// touched returns the bitmap of the nodes the selected edges touch. A
// shared selection's bitmap is marked once and must not be modified.
func (s Selection) touched() nodeSet {
	if s.nodes == nil {
		return s.markTouched()
	}
	s.nodes.once.Do(func() { s.nodes.set = s.markTouched() })
	return s.nodes.set
}

// markTouched marks the nodes the selected edges touch in a new bitmap.
func (s Selection) markTouched() nodeSet {
	set := make(nodeSet, (s.G.NumNodes()+63)/64)
	for i := range s.Len() {
		e := s.G.edges[s.ID(i)]
		set.add(e.Src)
		set.add(e.Dst)
	}
	return set
}

// nodeSet is a bitmap over node ids.
type nodeSet []uint64

func (b nodeSet) add(u int32) { b[u>>6] |= 1 << (u & 63) }
