package backbone

import (
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/graph"
)

// Disparity implements the Disparity Filter of Serrano, Boguñá &
// Vespignani (PNAS 2009), the statistical state of the art the paper
// measures NC against.
//
// The null model is per-node: the k edge-weight shares of a node are
// modeled as the spacings of k-1 uniform points on the unit interval,
// so the share p of one edge survives with p-value
//
//	α_ij = (1 - p)^(k-1).
//
// Each edge is tested twice — from its source as an emitter over
// outgoing weights, and from its target as a receiver over incoming
// weights (for undirected graphs, from both endpoints over incident
// weights) — and the more favorable (smaller) α is kept, matching the
// paper's description: "an edge is tested twice to verify whether its
// weight is significant for either of the connected nodes".
//
// The crucial difference from NC: the two endpoints are never considered
// jointly, so a weak node's connection to a hub always looks significant
// from the weak node's side.
type Disparity struct{}

// NewDisparity returns a Disparity scorer.
func NewDisparity() *Disparity { return &Disparity{} }

// Name implements filter.Scorer.
func (*Disparity) Name() string { return "df" }

// alphaFor returns the Disparity p-value of an edge of weight w at a
// node of strength s and degree k. Degree-1 nodes have α = 1: their
// single edge is exactly what the null predicts, so it carries no
// evidence (the standard convention for the filter).
func alphaFor(w, s float64, k int) float64 {
	if k <= 1 || s <= 0 {
		return 1
	}
	p := w / s
	if p >= 1 {
		return 0
	}
	return math.Pow(1-p, float64(k-1))
}

// NewTable implements filter.RangeScorer; both columns share one
// backing array.
func (d *Disparity) NewTable(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("backbone: empty graph")
	}
	m := g.NumEdges()
	back := make([]float64, 2*m)
	return &filter.Scores{
		G:      g,
		Score:  back[:m:m],
		Method: d.Name(),
		Aux:    map[string][]float64{"alpha": back[m : 2*m : 2*m]},
	}, nil
}

// ScoreEdges implements filter.RangeScorer, filling rows [lo, hi) with
// the Aux column bound outside the loop.
func (d *Disparity) ScoreEdges(s *filter.Scores, lo, hi int) {
	g := s.G
	edges := g.Edges()
	score := s.Score
	alphaCol := s.Aux["alpha"]
	for id := lo; id < hi; id++ {
		e := edges[id]
		src, dst := int(e.Src), int(e.Dst)
		aOut := alphaFor(e.Weight, g.OutStrength(src), g.OutDegree(src))
		aIn := alphaFor(e.Weight, g.InStrength(dst), g.InDegree(dst))
		alpha := math.Min(aOut, aIn)
		alphaCol[id] = alpha
		score[id] = 1 - alpha
	}
}

// Scores computes 1 - α_ij per edge (higher = more significant), so
// Threshold(1-α) keeps edges significant at level α. Aux column "alpha"
// carries the raw p-values.
func (d *Disparity) Scores(g *graph.Graph) (*filter.Scores, error) {
	return filter.Serial(d, g)
}
