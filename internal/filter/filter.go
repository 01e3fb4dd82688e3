// Package filter defines the common scoring-and-pruning framework shared
// by every backboning method in this repository.
//
// Backboning is a two-phase operation, mirroring the design of the
// paper's released Python module: a Scorer computes a per-edge
// significance table (Scores) from a weighted graph, and the table is
// then pruned — by significance threshold, by top-K, or by top share of
// edges. Separating the phases lets the experiments compare methods at
// exactly equal backbone sizes, as the paper does ("we fix the number of
// edges we include in the backbone", Section V-E).
package filter

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
)

// Scores is a per-edge significance table over a graph's canonical edges.
// A table is immutable once returned: G, Score and Aux do not change
// after the call that produced it, so concurrent readers (score-cache
// hits) may share it. The one exception is an exclusive RescoreDirty,
// which consumes the table it is given.
type Scores struct {
	// G is the graph the scores refer to; Score[i] belongs to G.Edges()[i].
	G *graph.Graph
	// Score is the canonical significance of each edge: higher means more
	// salient, and Threshold(t) keeps edges with Score > t. Methods map
	// their native statistic so that their natural pruning rule becomes a
	// plain threshold (NC: score/σ vs δ; DF: 1−α vs 1−α_crit; ...).
	Score []float64
	// Aux holds optional method-specific columns aligned with Score
	// (e.g. the NC backbone exposes "nc_score" and "sdev" so callers can
	// reproduce the paper's Figure 2 or compare two edges statistically).
	Aux map[string][]float64
	// Method names the producing algorithm.
	Method string

	// cut is the last threshold cut Select made or RescoreDirty carried
	// forward.
	cut atomic.Pointer[thresholdCut]
}

// thresholdCut is a table's remembered cut: the edges with Score > t,
// and the bitmap of the nodes they touch, marked on first use.
type thresholdCut struct {
	t     float64
	sel   graph.Selection
	nodes graph.TouchedNodes
}

// Scorer computes an edge significance table for a graph.
type Scorer interface {
	// Name returns a short identifier such as "nc" or "df".
	Name() string
	// Scores computes the per-edge significance table.
	Scores(g *graph.Graph) (*Scores, error)
}

// Extractor directly produces a backbone subgraph. Parameter-free
// methods whose output is a fixed edge set (Maximum Spanning Tree,
// the connectivity-stopping Doubly Stochastic variant) implement this
// instead of, or in addition to, Scorer.
type Extractor interface {
	Name() string
	Extract(g *graph.Graph) (*graph.Graph, error)
}

// Validate checks internal consistency; all constructors in this module
// produce valid tables, so failures indicate programmer error.
func (s *Scores) Validate() error {
	if s.G == nil {
		return fmt.Errorf("filter: nil graph")
	}
	if len(s.Score) != s.G.NumEdges() {
		return fmt.Errorf("filter: %d scores for %d edges", len(s.Score), s.G.NumEdges())
	}
	// Sorted order pins which column a multi-error table is reported for.
	names := make([]string, 0, len(s.Aux))
	//lint:detiter-ok collecting keys only; sorted before use
	for name := range s.Aux {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(s.Aux[name]) != len(s.Score) {
			return fmt.Errorf("filter: aux column %q has %d rows, want %d", name, len(s.Aux[name]), len(s.Score))
		}
	}
	return nil
}

// Select returns the selection of edges with Score > t. The table
// remembers its last cut, so asking again for the same t (bit for bit)
// returns that selection, touched-node bitmap included, without a walk
// of the table; this relies on the table being immutable. Otherwise one
// counting pass sizes the id slice, so the cut costs one allocation.
// The fill pass writes every id and advances past the kept ones only
// (into one spare slot), which compiles without a branch on the score:
// a kept share of a few percent would otherwise mispredict on most kept
// rows. The returned ids are shared and must not be modified.
func (s *Scores) Select(t float64) graph.Selection {
	if c := s.cut.Load(); c != nil && math.Float64bits(c.t) == math.Float64bits(t) {
		return c.sel
	}
	n := s.CountAbove(t)
	ids := make([]int32, n+1)
	k := 0
	for id, v := range s.Score {
		ids[k] = int32(id)
		if v > t {
			k++
		}
	}
	return s.remember(t, ids[:n])
}

// remember makes ids, the edges with Score > t, the table's last cut
// and returns them as a selection.
func (s *Scores) remember(t float64, ids []int32) graph.Selection {
	c := &thresholdCut{t: t}
	c.sel = graph.SharedSelection(s.G, ids, &c.nodes)
	s.cut.Store(c)
	return c.sel
}

// Threshold returns the backbone keeping edges with Score > t.
// The full node set is preserved so coverage can be measured.
func (s *Scores) Threshold(t float64) *graph.Graph { return s.Select(t).Graph() }

// CountAbove returns how many edges have Score > t.
func (s *Scores) CountAbove(t float64) int {
	n := 0
	for _, v := range s.Score {
		if v > t {
			n++
		}
	}
	return n
}

// outranks reports whether edge a ranks above edge b: higher score
// first, then higher weight, then lower edge ID. It is a strict total
// order, so every top-k edge set is unique and deterministic.
func (s *Scores) outranks(edges []graph.Edge, a, b int) bool {
	if s.Score[a] != s.Score[b] {
		return s.Score[a] > s.Score[b]
	}
	if edges[a].Weight != edges[b].Weight {
		return edges[a].Weight > edges[b].Weight
	}
	return a < b
}

// selectTop partially orders ids in place so that ids[:k] are the k
// highest-ranked edges (in unspecified order). Hoare-partition
// quickselect with median-of-three pivots: expected O(m), replacing
// the former full O(m log m) stable sort on the top-k path.
func (s *Scores) selectTop(ids []int, k int) {
	if k <= 0 || k >= len(ids) {
		return
	}
	edges := s.G.Edges()
	before := func(a, b int) bool { return s.outranks(edges, a, b) }
	lo, hi := 0, len(ids)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if before(ids[mid], ids[lo]) {
			ids[mid], ids[lo] = ids[lo], ids[mid]
		}
		if before(ids[hi], ids[lo]) {
			ids[hi], ids[lo] = ids[lo], ids[hi]
		}
		if before(ids[hi], ids[mid]) {
			ids[hi], ids[mid] = ids[mid], ids[hi]
		}
		pivot := ids[mid]
		i, j := lo, hi
		for i <= j {
			for before(ids[i], pivot) {
				i++
			}
			for before(pivot, ids[j]) {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// topIDs returns the ids of the k highest-ranked edges, unordered.
func (s *Scores) topIDs(k int) []int {
	ids := make([]int, len(s.Score))
	for i := range ids {
		ids[i] = i
	}
	s.selectTop(ids, k)
	return ids[:k]
}

// SelectTop returns the selection of the k most significant edges (all
// edges if k exceeds the edge count).
func (s *Scores) SelectTop(k int) graph.Selection {
	m := len(s.Score)
	k = max(0, min(k, m))
	ids := make([]int32, 0, k)
	switch {
	case k == m:
		for id := range m {
			ids = append(ids, int32(id))
		}
	case k > 0:
		keep := make([]bool, m)
		for _, id := range s.topIDs(k) {
			keep[id] = true
		}
		for id, ok := range keep {
			if ok {
				ids = append(ids, int32(id))
			}
		}
	}
	return graph.Selection{G: s.G, IDs: ids}
}

// TopK returns the backbone with the k most significant edges
// (all edges if k exceeds the edge count).
func (s *Scores) TopK(k int) *graph.Graph { return s.SelectTop(k).Graph() }

// TopFraction returns the backbone keeping the given share (0..1] of
// edges, rounding to the nearest whole edge.
func (s *Scores) TopFraction(f float64) *graph.Graph {
	return s.SelectTop(int(f*float64(len(s.Score)) + 0.5)).Graph()
}

// ThresholdForK returns the significance value of the k-th ranked edge,
// i.e. the cut that TopK(k) implies. NaN-free inputs assumed.
func (s *Scores) ThresholdForK(k int) float64 {
	if k <= 0 || len(s.Score) == 0 {
		return 0
	}
	if k > len(s.Score) {
		k = len(s.Score)
	}
	// The k-th ranked edge is the lowest-ranked of the top k.
	ids := s.topIDs(k)
	edges := s.G.Edges()
	worst := ids[0]
	for _, id := range ids[1:] {
		if s.outranks(edges, worst, id) {
			worst = id
		}
	}
	return s.Score[worst]
}
