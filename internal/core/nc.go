// Package core implements the Noise-Corrected (NC) network backbone of
// Coscia & Neffke, "Network Backboning with Noisy Data" (ICDE 2017) —
// the primary contribution this repository reproduces.
//
// The NC null model treats an edge weight N_ij as the sum of unitary
// interactions that each leave node i and land on node j with
// probability P_ij. Conditioning on the observed node strengths, the
// expected weight is E[N_ij] = N_i. * N_.j / N.. — unlike the Disparity
// Filter, the null simultaneously accounts for the propensity of the
// origin to emit and of the destination to receive interactions.
//
// Each observed weight is converted into a lift L_ij = N_ij / E[N_ij]
// and then symmetrized to the score L̃_ij = (L_ij - 1)/(L_ij + 1) in
// (-1, 1), centered on zero. The variance of the score follows from the
// delta method applied to the Binomial variance of N_ij, where P_ij is
// estimated not by its degenerate plug-in frequency but by the posterior
// mean of a Beta-Binomial model whose Beta prior is moment-matched to a
// hypergeometric edge-generation process (paper Eqs. 4-8). An edge
// enters the backbone when its score exceeds δ posterior standard
// deviations, δ being the method's only parameter.
package core

import (
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/stats"
)

// EdgeStats holds the Noise-Corrected statistics of a single edge.
type EdgeStats struct {
	// Expected is the null-model expectation E[N_ij] = N_i. N_.j / N.. .
	Expected float64
	// Lift is N_ij / E[N_ij].
	Lift float64
	// Score is the symmetrized lift L̃_ij = (Lift-1)/(Lift+1), in (-1, 1).
	Score float64
	// Variance is the delta-method posterior variance of Score.
	Variance float64
	// Sdev is sqrt(Variance).
	Sdev float64
	// PosteriorP is the Beta-Binomial posterior mean of P_ij.
	PosteriorP float64
}

// ComputeEdge evaluates the NC statistics for one edge given the
// observed weight nij, the endpoint strengths ni (outgoing strength of
// the source, N_i.) and nj (incoming strength of the target, N_.j), and
// the network total n (N..). It is exported so that callers can score
// hypothetical edges — e.g. to ask whether two edges differ
// significantly, the use case the paper highlights for the confidence
// intervals.
func ComputeEdge(nij, ni, nj, n float64) EdgeStats {
	var es EdgeStats
	computeEdgeInto(&es, nij, ni, nj, n)
	return es
}

// computeEdgeInto is ComputeEdge writing through a pointer: the scoring
// hot loop reuses one EdgeStats instead of copying a 48-byte struct out
// of every call. The math is shared, so serial, parallel and one-off
// edge evaluations are bit-identical by construction.
func computeEdgeInto(es *EdgeStats, nij, ni, nj, n float64) {
	if ni <= 0 || nj <= 0 || n <= 0 {
		// A positive-weight edge guarantees positive strengths; this
		// branch only serves hypothetical queries on empty margins.
		*es = EdgeStats{}
		return
	}
	es.Expected = ni * nj / n
	kappa := n / (ni * nj) // 1 / E[N_ij]
	es.Lift = nij / es.Expected
	es.Score = (kappa*nij - 1) / (kappa*nij + 1)

	// Prior moments of P_ij from the hypergeometric generation process.
	mu := ni * nj / (n * n)
	sigma2 := ni * nj * (n - ni) * (n - nj) / (n * n * n * n * (n - 1))

	// Posterior mean of P_ij. When the prior is degenerate (a node
	// carrying the entire network weight, or a single-interaction
	// network) fall back to the plug-in frequency — with the convention
	// that an impossible prior contributes no pseudo-counts.
	post := nij / n
	if sigma2 > 0 && mu > 0 && mu < 1 && sigma2 < mu*(1-mu) {
		alpha0, beta0 := stats.BetaFromMoments(mu, sigma2)
		if alpha0 > 0 && beta0 > 0 {
			post = (nij + alpha0) / (n + alpha0 + beta0)
		}
	}
	es.PosteriorP = post

	// Binomial variance of N_ij under the posterior P_ij (paper Eq. 2).
	varNij := n * post * (1 - post)

	// Delta method: V[L̃] = V[N_ij] * ( 2(κ + N_ij κ') / (κ N_ij + 1)² )².
	dKappa := 1/(ni*nj) - n*(ni+nj)/((ni*nj)*(ni*nj))
	denom := kappa*nij + 1
	deriv := 2 * (kappa + nij*dKappa) / (denom * denom)
	es.Variance = varNij * deriv * deriv
	es.Sdev = math.Sqrt(es.Variance)
}

// NoiseCorrected scores edges with the NC null model. The zero value is
// ready to use; it implements filter.Scorer.
type NoiseCorrected struct{}

// New returns a NoiseCorrected scorer.
func New() *NoiseCorrected { return &NoiseCorrected{} }

// Name implements filter.Scorer.
func (*NoiseCorrected) Name() string { return "nc" }

// NewTable implements filter.RangeScorer: it allocates the empty NC
// significance table. All five columns share one backing array, so a
// million-edge table costs a handful of allocations.
func (nc *NoiseCorrected) NewTable(g *graph.Graph) (*filter.Scores, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	m := g.NumEdges()
	back := make([]float64, 5*m)
	return &filter.Scores{
		G:      g,
		Score:  back[0*m : 1*m : 1*m],
		Method: nc.Name(),
		Aux: map[string][]float64{
			"nc_score": back[1*m : 2*m : 2*m],
			"sdev":     back[2*m : 3*m : 3*m],
			"expected": back[3*m : 4*m : 4*m],
			"variance": back[4*m : 5*m : 5*m],
		},
	}, nil
}

// ScoreEdges implements filter.RangeScorer: it fills rows [lo, hi) of
// the table. Aux columns are bound to locals once, outside the hot
// loop — a map lookup per edge per column would dominate the kernel.
//
//lint:ctxflow-ok RangeScorer kernel: the parallel framework checks ctx between checkpoint ranges
func (nc *NoiseCorrected) ScoreEdges(out *filter.Scores, lo, hi int) {
	g := out.G
	// For undirected graphs each canonical edge is a single bilateral
	// relation: strengths count both endpoints' incident weight and
	// TotalWeight counts each edge once per direction, so the directed
	// formulas apply unchanged with N_ij measured once.
	n := g.TotalWeight()
	outS, inS := g.OutStrengths(), g.InStrengths()
	edges := g.Edges()[lo:hi]
	score := out.Score[lo:hi]
	ncScore := out.Aux["nc_score"][lo:hi]
	sdev := out.Aux["sdev"][lo:hi]
	expected := out.Aux["expected"][lo:hi]
	variance := out.Aux["variance"][lo:hi]
	var es EdgeStats
	for i, e := range edges {
		computeEdgeInto(&es, e.Weight, outS[e.Src], inS[e.Dst], n)
		ncScore[i] = es.Score
		sdev[i] = es.Sdev
		expected[i] = es.Expected
		variance[i] = es.Variance
		switch {
		case es.Sdev > 0:
			score[i] = es.Score / es.Sdev
		case es.Score > 0:
			score[i] = math.Inf(1)
		default:
			score[i] = math.Inf(-1)
		}
	}
}

// Scores computes the NC significance table. The canonical Score column
// is L̃_ij / σ_ij, so that Threshold(δ) implements the paper's pruning
// rule "keep the edge iff L̃_ij > δ·σ_ij". Aux columns:
//
//	"nc_score"  — the symmetrized lift L̃_ij (Figure 2 plots its
//	              distribution shifted by δ·σ);
//	"sdev"      — the posterior standard deviation σ_ij;
//	"expected"  — E[N_ij] under the null;
//	"variance"  — V[L̃_ij], the quantity validated against observed
//	              year-to-year variance in Table I.
func (nc *NoiseCorrected) Scores(g *graph.Graph) (*filter.Scores, error) {
	return filter.Serial(nc, g)
}

// DeltaToPValue converts a δ threshold to the one-tailed p-value it
// approximates under a normal score distribution.
func DeltaToPValue(delta float64) float64 { return 1 - stats.NormalCDF(delta) }

// PValueToDelta converts a one-tailed p-value to the corresponding δ.
func PValueToDelta(p float64) float64 { return stats.NormalQuantile(1 - p) }
