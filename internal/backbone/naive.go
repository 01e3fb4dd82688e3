// Package backbone implements the baseline backboning algorithms the
// paper compares the Noise-Corrected method against (Section III-B):
// naive weight thresholding, the Maximum Spanning Tree, the Disparity
// Filter of Serrano et al., the High Salience Skeleton of Grady et al.,
// and Slater's Doubly-Stochastic two-stage algorithm.
//
// All methods plug into the filter.Scorer / filter.Extractor framework
// so they can be compared at equal backbone sizes.
package backbone

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/graph"
)

// Naive scores each edge by its raw weight, so thresholding reproduces
// the classic "drop everything lighter than δ" filter. The paper uses it
// as the floor any serious method must beat.
type Naive struct{}

// NewNaive returns a Naive scorer.
func NewNaive() *Naive { return &Naive{} }

// Name implements filter.Scorer.
func (*Naive) Name() string { return "naive" }

// NewTable implements filter.RangeScorer.
func (n *Naive) NewTable(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("backbone: empty graph")
	}
	return &filter.Scores{
		G:      g,
		Score:  make([]float64, g.NumEdges()),
		Method: n.Name(),
	}, nil
}

// ScoreEdges implements filter.RangeScorer.
func (n *Naive) ScoreEdges(s *filter.Scores, lo, hi int) {
	edges := s.G.Edges()
	score := s.Score
	for id := lo; id < hi; id++ {
		score[id] = edges[id].Weight
	}
}

// Scores returns edge weights as significance values.
func (n *Naive) Scores(g *graph.Graph) (*filter.Scores, error) {
	return filter.Serial(n, g)
}
