package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func chain(n int, weights ...float64) *graph.Graph {
	b := graph.NewBuilder(false)
	b.AddNodes(n)
	for i, w := range weights {
		b.MustAddEdge(i, i+1, w)
	}
	return b.Build()
}

func TestCoverage(t *testing.T) {
	orig := chain(4, 1, 2, 3) // all 4 nodes connected
	var kept []int32
	for i, e := range orig.Edges() {
		if e.Weight >= 2 {
			kept = append(kept, int32(i))
		}
	}
	// Edges (1,2),(2,3) survive: node 0 isolated -> coverage 3/4.
	if got := Coverage(orig, graph.Selection{G: orig, IDs: kept}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Coverage = %v, want 0.75", got)
	}
	if got := Coverage(orig, orig.All()); got != 1 {
		t.Errorf("self coverage = %v", got)
	}
	empty := graph.NewBuilder(false).Build()
	if !math.IsNaN(Coverage(empty, empty.All())) {
		t.Error("coverage of empty graph should be NaN")
	}
}

func TestJaccardAndRecovery(t *testing.T) {
	a := map[graph.EdgeKey]bool{{U: 0, V: 1}: true, {U: 1, V: 2}: true}
	b := map[graph.EdgeKey]bool{{U: 1, V: 2}: true, {U: 2, V: 3}: true}
	if got := Jaccard(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self Jaccard = %v", got)
	}
	if !math.IsNaN(Jaccard(nil, nil)) {
		t.Error("empty Jaccard should be NaN")
	}
	g := chain(3, 1, 1)
	if got := Recovery(g, g); got != 1 {
		t.Errorf("Recovery = %v", got)
	}
	// Ground truth with different weights but the same pairs: still 1.
	truth := chain(3, 7, 9)
	if got := Recovery(g, truth); got != 1 {
		t.Errorf("Recovery vs reweighted truth = %v", got)
	}
	empty := graph.NewBuilder(false).Build()
	if !math.IsNaN(EdgeJaccard(empty, empty)) {
		t.Error("empty EdgeJaccard should be NaN")
	}
}

func TestStabilityPerfectAndPerturbed(t *testing.T) {
	t0 := chain(5, 4, 3, 2, 1)
	// Identical next year: stability 1.
	if got := Stability(t0, t0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Stability identical = %v", got)
	}
	// Reversed ranks next year: stability -1.
	t1 := chain(5, 1, 2, 3, 4)
	if got := Stability(t0, t1); math.Abs(got+1) > 1e-12 {
		t.Errorf("Stability reversed = %v", got)
	}
	// Missing edges in t1 count as zero weight.
	t2 := chain(5, 8)
	got := Stability(t0, t2)
	if math.IsNaN(got) {
		t.Error("missing edges should not produce NaN")
	}
}

// randomGraph builds a reproducible random graph: n nodes of which only
// the first ceil(n·density) participate in edges (the rest are
// isolates), small-integer weights so values collide (rank ties), and
// optional directedness.
func randomGraph(rng *rand.Rand, n int, edges int, directed bool) *graph.Graph {
	b := graph.NewBuilder(directed)
	b.AddNodes(n)
	active := n/2 + 1 // the upper half of the ID space stays isolated
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(active), rng.Intn(active)
		if u == v {
			continue
		}
		// Weights from a tiny alphabet force collisions; the join's
		// zero-fill for absent pairs then collides with them in ranks.
		b.MustAddEdge(u, v, float64(1+rng.Intn(3)))
	}
	return b.Build()
}

// randomSubgraph keeps each edge with probability p.
func randomSubgraph(rng *rand.Rand, g *graph.Graph, p float64) *graph.Graph {
	return g.FilterEdges(func(int, graph.Edge) bool { return rng.Float64() < p })
}

// sameFloat compares bit-for-bit up to NaN equivalence.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// TestEdgeJaccardMatchesOracle pins the CSR merge-walk intersection
// bit-identical to the map-based oracle on random graph pairs,
// including graphs with isolates, empty graphs, and directed pairs.
func TestEdgeJaccardMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 1
		n := 2 + rng.Intn(30)
		a := randomGraph(rng, n, rng.Intn(80), directed)
		b := randomGraph(rng, n, rng.Intn(80), directed)
		got := EdgeJaccard(a, b)
		want := Jaccard(a.EdgeSet(), b.EdgeSet())
		if !sameFloat(got, want) {
			t.Errorf("seed %d: EdgeJaccard = %v, oracle = %v", seed, got, want)
		}
		// Subgraph against its source: exact edge-count ratio.
		sub := randomSubgraph(rng, a, 0.5)
		if a.NumEdges() > 0 {
			want := float64(sub.NumEdges()) / float64(a.NumEdges())
			if got := EdgeJaccard(sub, a); !sameFloat(got, want) {
				t.Errorf("seed %d: subgraph Jaccard = %v, want %v", seed, got, want)
			}
		}
	}
}

// TestEdgeJaccardMixedDirectedness pins the fallback path: comparing a
// symmetrized backbone against a directed graph must equal the key-set
// oracle exactly.
func TestEdgeJaccardMixedDirectedness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomGraph(rng, 12, 40, true)
	u := d.Undirected()
	got := EdgeJaccard(u, d)
	want := Jaccard(u.EdgeSet(), d.EdgeSet())
	if !sameFloat(got, want) {
		t.Errorf("mixed EdgeJaccard = %v, oracle = %v", got, want)
	}
}

// TestStabilityMatchesOracle pins the CSR merge-walk weight join
// bit-identical to the WeightMap oracle on random backbone/next pairs —
// including isolates, pairs absent from the next snapshot (zero-weight
// fills colliding with each other in the rank correlation), and the
// mixed-directedness case of symmetrized backbones over directed
// observations.
func TestStabilityMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		directed := seed%2 == 1
		n := 2 + rng.Intn(30)
		g1 := randomGraph(rng, n, 20+rng.Intn(80), directed)
		next := randomGraph(rng, n, rng.Intn(80), directed)
		bb := randomSubgraph(rng, g1, 0.6)
		if got, want := Stability(bb, next), StabilityOracle(bb, next); !sameFloat(got, want) {
			t.Errorf("seed %d: Stability = %v, oracle = %v", seed, got, want)
		}
		// Mixed directedness: undirected backbone joined against the
		// directed snapshot sums both arc directions.
		if directed {
			ubb := randomSubgraph(rng, g1.Undirected(), 0.6)
			if got, want := Stability(ubb, next), StabilityOracle(ubb, next); !sameFloat(got, want) {
				t.Errorf("seed %d: mixed Stability = %v, oracle = %v", seed, got, want)
			}
		}
	}
}

// TestWeightJoinBufferReuse: the join appends into caller buffers, so a
// reused buffer pair produces identical joins with zero allocations —
// the property BenchmarkEvaluate100k measures.
func TestWeightJoinBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 200, false)
	next := randomGraph(rng, 40, 150, false)
	bb := randomSubgraph(rng, g, 0.5)
	cur1, nxt1 := WeightJoin(bb, next, nil, nil)
	buf1, buf2 := make([]float64, 0, bb.NumEdges()), make([]float64, 0, bb.NumEdges())
	cur2, nxt2 := WeightJoin(bb, next, buf1[:0], buf2[:0])
	if len(cur1) != len(cur2) || len(nxt1) != len(nxt2) {
		t.Fatalf("join lengths differ: %d/%d vs %d/%d", len(cur1), len(nxt1), len(cur2), len(nxt2))
	}
	for i := range cur1 {
		if cur1[i] != cur2[i] || nxt1[i] != nxt2[i] {
			t.Fatalf("join row %d differs", i)
		}
	}
}

// TestRestrictEdgesMatchesOracle pins the CSR restriction bit-identical
// to the key-set oracle, including the directed-full/undirected-backbone
// case the Quality regressions hit.
func TestRestrictEdgesMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		directed := seed%2 == 1
		n := 2 + rng.Intn(30)
		full := randomGraph(rng, n, 20+rng.Intn(100), directed)
		bb := randomSubgraph(rng, full, 0.4)
		check := func(label string, full, bb *graph.Graph) {
			t.Helper()
			got := RestrictEdges(full, bb)
			want := RestrictEdgesOracle(full, bb)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d edges, oracle %d", seed, label, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: edge %d = %+v, oracle %+v", seed, label, i, got[i], want[i])
				}
			}
		}
		check("same", full, bb)
		if directed {
			check("mixed", full, randomSubgraph(rng, full.Undirected(), 0.4))
		}
	}
}

type mockDesigner struct{}

// Design predicts y = log(w+1) from a noisy copy of itself; "good"
// edges (weight >= 10) follow the model exactly, others are noise.
func (mockDesigner) Design(_ string, edges []graph.Edge) ([]float64, [][]float64, error) {
	y := make([]float64, len(edges))
	x := make([]float64, len(edges))
	for i, e := range edges {
		y[i] = math.Log1p(e.Weight)
		if e.Weight >= 10 {
			x[i] = y[i] // perfectly predictable
		} else {
			x[i] = float64(i%7) * 0.13 // junk
		}
	}
	return y, [][]float64{x}, nil
}

func TestQualityRatio(t *testing.T) {
	// Full graph: half predictable, half junk. Backbone keeps the
	// predictable half -> quality ratio above 1.
	b := graph.NewBuilder(false)
	b.AddNodes(40)
	for i := 0; i < 39; i++ {
		w := 1.0 + float64(i%5)
		if i%2 == 0 {
			w = 10 + float64(i)
		}
		b.MustAddEdge(i, i+1, w)
	}
	full := b.Build()
	bb := full.FilterEdges(func(_ int, e graph.Edge) bool { return e.Weight >= 10 })
	res, err := Quality(mockDesigner{}, "test", full, bb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality <= 1 {
		t.Errorf("Quality = %v, want > 1 (backbone should help)", res.Quality)
	}
	if res.R2Backbone < 0.99 {
		t.Errorf("backbone R² = %v, want ~1", res.R2Backbone)
	}
	if res.EdgesBackbone >= res.EdgesFull {
		t.Error("edge counts inconsistent")
	}
}
