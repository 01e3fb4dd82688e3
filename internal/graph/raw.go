package graph

import (
	"fmt"
	"math"
	"sync"
)

// This file is the seam between the immutable in-memory Graph and
// external storage formats (internal/binfmt): CSRView exposes the flat
// CSR arrays for zero-copy serialization, and FromCSR rebuilds a Graph
// from externally supplied arrays — possibly aliasing a read-only
// memory-mapped file — after validating every structural invariant the
// rest of the package relies on. Neither function copies slice data;
// both sides of the seam treat the arrays as immutable.

// CSRView exposes a Graph's internal CSR adjacency arrays. The slices
// alias the Graph's own storage: callers must not modify them. For
// undirected graphs InArcs/InOff are nil (In() falls through to Out()).
type CSRView struct {
	Arcs   []Arc
	OutOff []int32
	InArcs []Arc
	InOff  []int32
}

// CSRView returns the graph's CSR adjacency arrays without copying.
func (g *Graph) CSRView() CSRView {
	g.ensureArcs()
	return CSRView{Arcs: g.arcs, OutOff: g.outOff, InArcs: g.inArcs, InOff: g.inOff}
}

// CSRParts carries every array needed to assemble a Graph directly in
// CSR form, bypassing the Builder. Producers are storage loaders that
// already hold canonical arrays (e.g. a binary graph file); FromCSR
// validates the invariants the Builder would otherwise guarantee.
type CSRParts struct {
	Directed bool
	NumNodes int

	// Canonical edges, sorted ascending by (Src, Dst), deduplicated,
	// with strictly positive weights. Undirected edges have Src <= Dst.
	Edges []Edge

	// CSR adjacency: Arcs/OutOff as in Graph. For directed graphs
	// InArcs/InOff must be present; for undirected they must be nil.
	Arcs   []Arc
	OutOff []int32
	InArcs []Arc
	InOff  []int32

	// Per-node strengths and the global total. These are trusted as-is
	// (storage formats checksum them); they must have been produced by
	// the same deterministic accumulation buildCSR performs, or
	// bit-identity with Builder-built graphs is lost. For undirected
	// graphs InStrength may be nil or alias OutStrength.
	OutStrength []float64
	InStrength  []float64
	Total       float64

	// Optional node labels indexed by ID; nil means unlabeled. The
	// label->ID index is built lazily on first NodeID call, keeping
	// mmap-loaded graphs free of per-node hashing until a lookup
	// actually needs it.
	Labels []string
}

// lazyIndex materializes the label->ID map on first use. Graphs loaded
// from CSR storage share one lazyIndex across Selection.Graph copies, so the
// map is built at most once per loaded file however many subgraphs are
// extracted from it.
type lazyIndex struct {
	once   sync.Once
	labels []string
	m      map[string]int32
}

func (li *lazyIndex) get() map[string]int32 {
	li.once.Do(func() {
		m := make(map[string]int32, len(li.labels))
		for i, l := range li.labels {
			if l == "" {
				continue
			}
			if _, dup := m[l]; !dup {
				m[l] = int32(i)
			}
		}
		li.m = m
		li.labels = nil
	})
	return li.m
}

// labelIndex returns the label->ID map, building it lazily for graphs
// assembled by FromCSR. Builder-built graphs return their eager index.
func (g *Graph) labelIndex() map[string]int32 {
	if g.index == nil && g.lazy != nil {
		return g.lazy.get()
	}
	return g.index
}

// corruptCSR wraps a validation failure with enough context to locate
// the offending array. FromCSR callers (binary loaders) wrap it again
// in their own typed corruption error.
func corruptCSR(format string, args ...any) error {
	return fmt.Errorf("graph: invalid CSR: "+format, args...)
}

// validOffsets checks that off is a monotone CSR offset array covering
// exactly m arcs over n nodes.
func validOffsets(name string, off []int32, n, m int) error {
	if len(off) != n+1 {
		return corruptCSR("%s length %d, want %d", name, len(off), n+1)
	}
	if off[0] != 0 {
		return corruptCSR("%s[0] = %d, want 0", name, off[0])
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return corruptCSR("%s not monotone at node %d (%d < %d)", name, i, off[i], off[i-1])
		}
	}
	if int(off[n]) != m {
		return corruptCSR("%s covers %d arcs, want %d", name, off[n], m)
	}
	return nil
}

// validArcs checks every arc in a CSR range set: To in range and
// strictly increasing within each node's range (the binary-search
// invariant), EdgeID referencing a canonical edge whose endpoints and
// weight are consistent with the arc. inSide selects which endpoint of
// the referenced edge the owning node must be.
func validArcs(name string, arcs []Arc, off []int32, edges []Edge, n int, directed, inSide bool) error {
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			a := arcs[i]
			if a.To < 0 || int(a.To) >= n {
				return corruptCSR("%s[%d].To = %d out of range [0,%d)", name, i, a.To, n)
			}
			if a.To <= prev {
				return corruptCSR("%s arcs of node %d not strictly sorted by To", name, u)
			}
			prev = a.To
			if a.EdgeID < 0 || int(a.EdgeID) >= len(edges) {
				return corruptCSR("%s[%d].EdgeID = %d out of range [0,%d)", name, i, a.EdgeID, len(edges))
			}
			e := edges[a.EdgeID]
			if math.Float64bits(a.Weight) != math.Float64bits(e.Weight) {
				return corruptCSR("%s[%d] weight %v disagrees with edge %d weight %v", name, i, a.Weight, a.EdgeID, e.Weight)
			}
			var ok bool
			switch {
			case !directed:
				ok = (e.Src == int32(u) && e.Dst == a.To) || (e.Dst == int32(u) && e.Src == a.To)
			case inSide:
				ok = e.Dst == int32(u) && e.Src == a.To
			default:
				ok = e.Src == int32(u) && e.Dst == a.To
			}
			if !ok {
				return corruptCSR("%s[%d] (node %d -> %d) disagrees with edge %d (%d -> %d)", name, i, u, a.To, a.EdgeID, e.Src, e.Dst)
			}
		}
	}
	return nil
}

// FromCSR assembles a Graph directly from pre-built CSR arrays without
// copying them. It is the trusted entry point for binary graph loaders:
// every structural invariant (offset monotonicity, arc sort order and
// bounds, arc<->edge consistency, canonical edge order, array lengths)
// is re-validated in O(n+m) so that a malformed or adversarial file can
// produce an error but never an out-of-bounds Graph. Strengths and
// Total are trusted as-is — callers guard them with checksums — and the
// isolate count is recomputed. The returned Graph aliases every slice
// in p; callers must not modify them afterwards (they may be read-only
// mmap pages).
//
//lint:ctxflow-ok pure in-memory validation at memory bandwidth — a cancellation checkpoint would cost more than the scan it guards
func FromCSR(p CSRParts) (*Graph, error) {
	n, m := p.NumNodes, len(p.Edges)
	if n < 0 {
		return nil, corruptCSR("negative node count %d", n)
	}
	if n > math.MaxInt32 {
		return nil, corruptCSR("node count %d exceeds int32 ID space", n)
	}
	arcCount := m
	if !p.Directed {
		arcCount = 2 * m
	}
	if m > math.MaxInt32 || arcCount > math.MaxInt32 {
		return nil, corruptCSR("edge count %d exceeds int32 offset space", m)
	}
	if len(p.Arcs) != arcCount {
		return nil, corruptCSR("arc count %d, want %d", len(p.Arcs), arcCount)
	}
	if err := validOffsets("outOff", p.OutOff, n, arcCount); err != nil {
		return nil, err
	}
	if p.Directed {
		if err := validOffsets("inOff", p.InOff, n, m); err != nil {
			return nil, err
		}
		if len(p.InArcs) != m {
			return nil, corruptCSR("inArc count %d, want %d", len(p.InArcs), m)
		}
	} else if p.InArcs != nil || p.InOff != nil {
		return nil, corruptCSR("undirected graph carries in-CSR arrays")
	}
	// Canonical edge order: strictly ascending (Src, Dst), endpoints in
	// range, weights usable (positive; builder rejects <= 0 and NaN).
	var prev Edge
	for i, e := range p.Edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return nil, corruptCSR("edge %d endpoints (%d,%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
		if e.Src == e.Dst {
			return nil, corruptCSR("edge %d is a self-loop on node %d", i, e.Src)
		}
		if !p.Directed && e.Src > e.Dst {
			return nil, corruptCSR("edge %d (%d,%d) not canonical (Src > Dst in undirected graph)", i, e.Src, e.Dst)
		}
		if !(e.Weight > 0) {
			return nil, corruptCSR("edge %d weight %v not positive", i, e.Weight)
		}
		if i > 0 && (e.Src < prev.Src || (e.Src == prev.Src && e.Dst <= prev.Dst)) {
			return nil, corruptCSR("edges not strictly sorted by (Src, Dst) at %d", i)
		}
		prev = e
	}
	if err := validArcs("out", p.Arcs, p.OutOff, p.Edges, n, p.Directed, false); err != nil {
		return nil, err
	}
	if p.Directed {
		if err := validArcs("in", p.InArcs, p.InOff, p.Edges, n, true, true); err != nil {
			return nil, err
		}
	}
	if len(p.OutStrength) != n {
		return nil, corruptCSR("outStrength length %d, want %d", len(p.OutStrength), n)
	}
	inStrength := p.InStrength
	if !p.Directed && inStrength == nil {
		inStrength = p.OutStrength
	}
	if len(inStrength) != n {
		return nil, corruptCSR("inStrength length %d, want %d", len(inStrength), n)
	}
	labels := p.Labels
	if labels == nil {
		// io writers index g.labels[id] directly; a loaded graph must
		// always carry a full-length (possibly all-empty) label slice.
		labels = make([]string, n)
	} else if len(labels) != n {
		return nil, corruptCSR("label count %d, want %d", len(labels), n)
	}
	g := &Graph{
		directed:    p.Directed,
		labels:      labels,
		lazy:        &lazyIndex{labels: labels},
		edges:       p.Edges,
		arcs:        p.Arcs,
		outOff:      p.OutOff,
		inArcs:      p.InArcs,
		inOff:       p.InOff,
		outStrength: p.OutStrength,
		inStrength:  inStrength,
		total:       p.Total,
	}
	for u := 0; u < n; u++ {
		if g.OutDegree(u) == 0 && g.InDegree(u) == 0 {
			g.isolates++
		}
	}
	return g, nil
}
