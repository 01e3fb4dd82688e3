package core

import (
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/stats"
)

// BinomialPValues implements the alternative NC variant described in
// footnote 2 of the paper: skip the lift transformation and read the
// p-value of each edge weight directly off the null model's Binomial
// distribution, with N.. draws and success probability
// N_i. N_.j / N..². The variant cannot express a standard deviation for
// an edge weight (so two edges cannot be compared statistically), but
// it is a useful ablation against the delta-method score.
//
// It implements filter.Scorer; the canonical Score is -log10(p-value),
// so Threshold(-log10(α)) keeps edges significant at level α.
type BinomialPValues struct{}

// NewBinomial returns a BinomialPValues scorer.
func NewBinomial() *BinomialPValues { return &BinomialPValues{} }

// Name implements filter.Scorer.
func (*BinomialPValues) Name() string { return "nc-binomial" }

// NewTable implements filter.RangeScorer; both columns share one
// backing array.
func (b *BinomialPValues) NewTable(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	m := g.NumEdges()
	back := make([]float64, 2*m)
	return &filter.Scores{
		G:      g,
		Score:  back[:m:m],
		Method: b.Name(),
		Aux:    map[string][]float64{"pvalue": back[m : 2*m : 2*m]},
	}, nil
}

// ScoreEdges implements filter.RangeScorer, filling rows [lo, hi) with
// the Aux column bound outside the loop.
func (b *BinomialPValues) ScoreEdges(out *filter.Scores, lo, hi int) {
	g := out.G
	n := g.TotalWeight()
	edges := g.Edges()
	score := out.Score
	pvalue := out.Aux["pvalue"]
	for id := lo; id < hi; id++ {
		e := edges[id]
		ni := g.OutStrength(int(e.Src))
		nj := g.InStrength(int(e.Dst))
		p := ni * nj / (n * n)
		pv := stats.BinomialSF(e.Weight, n, p)
		pvalue[id] = pv
		if pv <= 0 {
			score[id] = math.Inf(1)
		} else {
			score[id] = -math.Log10(pv)
		}
	}
}

// Scores computes upper-tail Binomial p-values per edge.
// Aux column "pvalue" carries the raw p-values.
func (b *BinomialPValues) Scores(g *graph.Graph) (*filter.Scores, error) {
	return filter.Serial(b, g)
}
