package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/graph"
)

// cut extracts the registered method's native backbone at the given
// parameter overrides — the shipped Cut rule, not a restatement of it.
func cut(t *testing.T, name string, g *graph.Graph, overrides filter.Params) *graph.Graph {
	t.Helper()
	m, err := filter.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Resolve(overrides)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := m.BackboneCtx(context.Background(), g, p, -1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Graph()
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

// Hand-computed reference: directed graph a->b (3), a->c (1), b->c (2).
// For edge a->b: ni=4, nj=3, n=6; all intermediate quantities below were
// derived by hand from the paper's Eqs. 1-8.
func TestComputeEdgeHandChecked(t *testing.T) {
	es := ComputeEdge(3, 4, 3, 6)
	approx(t, es.Expected, 2, 1e-12, "E[Nij]")
	approx(t, es.Lift, 1.5, 1e-12, "lift")
	approx(t, es.Score, 0.2, 1e-12, "score")
	approx(t, es.PosteriorP, 0.3733333333, 1e-9, "posterior P")
	approx(t, es.Variance, 0.0022459733, 1e-9, "variance")
	approx(t, es.Sdev, math.Sqrt(0.0022459733), 1e-9, "sdev")
}

func TestScoreSymmetryOfLiftTransform(t *testing.T) {
	// The paper: lift 0.1 maps to -0.81..., lift 10 maps to +0.81...
	// Construct margins so that E[Nij] = 1 => lift equals nij.
	lo := ComputeEdge(0.1, 10, 10, 100)
	hi := ComputeEdge(10, 10, 10, 100)
	approx(t, lo.Score, -9.0/11.0, 1e-12, "lift 0.1")
	approx(t, hi.Score, +9.0/11.0, 1e-12, "lift 10")
	approx(t, lo.Score, -hi.Score, 1e-12, "symmetric around 0")
	mid := ComputeEdge(1, 10, 10, 100)
	approx(t, mid.Score, 0, 1e-12, "expected weight scores 0")
}

func TestZeroWeightEdgeHasPositiveVariance(t *testing.T) {
	// The raison d'être of the Bayesian step: N_ij = 0 must NOT imply
	// zero estimated variance (Section IV).
	es := ComputeEdge(0, 50, 30, 1000)
	if es.Variance <= 0 {
		t.Fatalf("variance = %v for zero edge, want > 0", es.Variance)
	}
	if es.Score != -1 {
		t.Errorf("zero edge score = %v, want -1 (minimum lift)", es.Score)
	}
	if es.PosteriorP <= 0 {
		t.Errorf("posterior P = %v, want strictly positive", es.PosteriorP)
	}
}

func TestPosteriorShrinkage(t *testing.T) {
	// The posterior mean must lie strictly between the plug-in frequency
	// nij/n and the prior mean ni*nj/n².
	nij, ni, nj, n := 40.0, 100.0, 100.0, 1000.0
	es := ComputeEdge(nij, ni, nj, n)
	plugin := nij / n          // 0.04
	prior := ni * nj / (n * n) // 0.01
	if !(es.PosteriorP > prior && es.PosteriorP < plugin) {
		t.Errorf("posterior %v not between prior %v and plug-in %v", es.PosteriorP, prior, plugin)
	}
}

func TestDegenerateMarginsFallBack(t *testing.T) {
	// ni == n: the prior variance formula degenerates; plug-in is used.
	es := ComputeEdge(5, 100, 50, 100)
	if es.PosteriorP != 5.0/100 {
		t.Errorf("degenerate prior: posterior = %v, want plug-in 0.05", es.PosteriorP)
	}
	// Empty margins yield a zero value, not NaN.
	z := ComputeEdge(1, 0, 5, 10)
	if z.Sdev != 0 || z.Score != 0 {
		t.Errorf("empty margin: %+v", z)
	}
}

// Property: the NC score is strictly within (-1, 1) and increases with
// the observed weight when margins are held fixed.
func TestQuickScoreBoundsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Float64()*1e6
		ni := 1 + rng.Float64()*(n/4)
		nj := 1 + rng.Float64()*(n/4)
		prev := math.Inf(-1)
		for _, frac := range []float64{0, 0.001, 0.01, 0.1, 0.5, 1} {
			nij := frac * math.Min(ni, nj)
			es := ComputeEdge(nij, ni, nj, n)
			if es.Score <= -1-1e-12 || es.Score >= 1 {
				return false
			}
			if es.Score < prev {
				return false
			}
			prev = es.Score
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and finite for all realistic inputs.
func TestQuickVarianceFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Float64()*1e7
		ni := 1 + rng.Float64()*(n/2)
		nj := 1 + rng.Float64()*(n/2)
		nij := rng.Float64() * math.Min(ni, nj)
		es := ComputeEdge(nij, ni, nj, n)
		return es.Variance >= 0 && !math.IsInf(es.Variance, 0) && !math.IsNaN(es.Variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildTestGraph(directed bool) *graph.Graph {
	b := graph.NewBuilder(directed)
	a, bb, c := b.AddNode("a"), b.AddNode("b"), b.AddNode("c")
	b.MustAddEdge(a, bb, 3)
	b.MustAddEdge(a, c, 1)
	b.MustAddEdge(bb, c, 2)
	return b.Build()
}

func TestScoresDirectedGraph(t *testing.T) {
	g := buildTestGraph(true)
	nc := New()
	s, err := nc.Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Method != "nc" || nc.Name() != "nc" {
		t.Errorf("method name = %q", s.Method)
	}
	// Edge a->b is edge (0,1): matches hand-checked ComputeEdge.
	var id = -1
	for i, e := range g.Edges() {
		if e.Src == 0 && e.Dst == 1 {
			id = i
		}
	}
	if id < 0 {
		t.Fatal("edge a->b not found")
	}
	approx(t, s.Aux["nc_score"][id], 0.2, 1e-12, "graph-level nc_score")
	approx(t, s.Score[id], 0.2/math.Sqrt(0.0022459733), 1e-6, "canonical z-score")
	approx(t, s.Aux["expected"][id], 2, 1e-12, "expected column")
}

func TestScoresUndirectedConventions(t *testing.T) {
	g := buildTestGraph(false)
	s, err := New().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	// Undirected: node strengths count incident weight; total doubles.
	// Edge a-b: ni = 4, nj = 5, n = 12 -> E = 20/12.
	for i, e := range g.Edges() {
		if e.Src == 0 && e.Dst == 1 {
			approx(t, s.Aux["expected"][i], 4.0*5.0/12.0, 1e-12, "undirected expectation")
		}
	}
}

func TestBackboneThresholding(t *testing.T) {
	g := buildTestGraph(true)
	all := cut(t, "nc", g, filter.Params{"delta": math.Inf(-1)})
	if all.NumEdges() != g.NumEdges() {
		t.Errorf("delta=-inf should keep all edges, kept %d", all.NumEdges())
	}
	none := cut(t, "nc", g, filter.Params{"delta": math.Inf(1)})
	if none.NumEdges() != 0 {
		t.Errorf("delta=+inf should drop all edges, kept %d", none.NumEdges())
	}
	if none.NumNodes() != g.NumNodes() {
		t.Error("node set must be preserved after pruning")
	}
	// Monotone: higher delta keeps a subset.
	b1 := cut(t, "nc", g, filter.Params{"delta": 0.5})
	b2 := cut(t, "nc", g, filter.Params{"delta": 2.0})
	if b2.NumEdges() > b1.NumEdges() {
		t.Errorf("delta=2 kept %d > delta=0.5 kept %d", b2.NumEdges(), b1.NumEdges())
	}
}

func TestEmptyGraphError(t *testing.T) {
	g := graph.NewBuilder(true).Build()
	if _, err := New().Scores(g); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := NewBinomial().Scores(g); err == nil {
		t.Error("empty graph accepted by binomial variant")
	}
}

func TestDeltaPValueRoundTrip(t *testing.T) {
	for _, d := range []float64{1.28, 1.64, 2.32} {
		p := DeltaToPValue(d)
		approx(t, PValueToDelta(p), d, 1e-8, "round trip")
	}
	approx(t, DeltaToPValue(1.28), 0.1, 5e-3, "paper delta 1.28 ~ p 0.1")
	approx(t, DeltaToPValue(1.64), 0.05, 5e-3, "paper delta 1.64 ~ p 0.05")
	approx(t, DeltaToPValue(2.32), 0.01, 5e-3, "paper delta 2.32 ~ p 0.01")
}

func TestBinomialVariantAgreesOnStrongEdges(t *testing.T) {
	// A clearly over-expressed edge should be significant under both the
	// delta-method score and the direct binomial p-value. The background
	// is a uniform complete graph so margins are flat and only the
	// planted pair deviates from its expectation.
	b := graph.NewBuilder(true)
	b.AddNodes(10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				b.MustAddEdge(i, j, 5)
			}
		}
	}
	b.MustAddEdge(2, 7, 45) // pair (2,7) now carries weight 50, lift ~3
	g := b.Build()

	sNC, err := New().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	sBin, err := NewBinomial().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	var strong int = -1
	for i, e := range g.Edges() {
		if e.Weight == 50 {
			strong = i
		}
	}
	// The strong edge must be the top-ranked edge under both variants.
	for i := range g.Edges() {
		if i == strong {
			continue
		}
		if sNC.Score[i] >= sNC.Score[strong] {
			t.Errorf("NC: edge %d outranks the planted strong edge", i)
		}
		if sBin.Score[i] >= sBin.Score[strong] {
			t.Errorf("binomial: edge %d outranks the planted strong edge", i)
		}
	}
	pv := sBin.Aux["pvalue"][strong]
	if pv > 1e-6 {
		t.Errorf("planted edge p-value = %v, want tiny", pv)
	}
}

func TestBinomialBackboneAlpha(t *testing.T) {
	g := buildTestGraph(true)
	bb := cut(t, "nc-binomial", g, filter.Params{"alpha": 1.0})
	// alpha = 1 keeps edges with pvalue < 1: all edges here have pvalue
	// strictly below 1 because they have positive weight.
	if bb.NumEdges() == 0 {
		t.Error("alpha=1 dropped everything")
	}
	none := cut(t, "nc-binomial", g, filter.Params{"alpha": 1e-300})
	if none.NumEdges() != 0 {
		t.Errorf("alpha=1e-300 kept %d edges", none.NumEdges())
	}
}
