package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The criteria benchmarks pin the PR-5 acceptance criterion: grading a
// backbone through the CSR merge-walk criteria allocates O(1) —
// EdgeJaccard walks the two canonical edge slices in place and
// WeightJoin appends into caller-reused buffers — where the retained
// map-based oracle materializes map[EdgeKey] sets and weight maps
// proportional to the edge count on every call.

type evalBenchFixture struct {
	g, next, bb, truth *graph.Graph
	cur, nxt           []float64
}

func newEvalBenchFixture(b *testing.B, n int) *evalBenchFixture {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	g := gen.ErdosRenyiGNM(rng, n, n*3/2)
	next := gen.ErdosRenyiGNM(rng, n, n*3/2)
	truth := g.FilterEdges(func(_ int, e graph.Edge) bool { return e.Weight > 0.5 })
	bb := g.FilterEdges(func(_ int, e graph.Edge) bool { return e.Weight > 0.9 })
	m := bb.NumEdges()
	return &evalBenchFixture{
		g: g, next: next, bb: bb, truth: truth,
		cur: make([]float64, 0, m), nxt: make([]float64, 0, m),
	}
}

// BenchmarkEvaluate100k grades one 150k-edge backbone under the full
// criteria set (coverage, recovery, stability weight join) through the
// CSR merge-walks. With the join buffers reused, the loop allocates
// O(1) per grading — compare BenchmarkEvaluateOracle100k.
func BenchmarkEvaluate100k(b *testing.B) {
	f := newEvalBenchFixture(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Coverage(f.g, f.bb.All())
		_ = Recovery(f.bb, f.truth)
		f.cur, f.nxt = WeightJoin(f.bb, f.next, f.cur[:0], f.nxt[:0])
	}
}

// BenchmarkEvaluateOracle100k is the identical grading through the
// retained map-based oracles: per call it builds the EdgeSet maps of
// both graphs plus next's WeightMap — O(edges) allocations.
func BenchmarkEvaluateOracle100k(b *testing.B) {
	f := newEvalBenchFixture(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Coverage(f.g, f.bb.All())
		_ = Jaccard(f.bb.EdgeSet(), f.truth.EdgeSet())
		f.cur, f.nxt = weightJoinOracle(f.bb, f.next)
	}
}

// BenchmarkStability100k measures the full Stability criterion (join +
// Spearman) at scale; the rank correlation dominates once the join is
// allocation-free.
func BenchmarkStability100k(b *testing.B) {
	f := newEvalBenchFixture(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Stability(f.bb, f.next); s != 0 {
			_ = s
		}
	}
}

// BenchmarkCompareCacheHit is the daemon's cache-hit /evaluate in
// process: a 20k-edge size-matched comparison of nc, df, nt and mst
// whose tables and mst extraction both come from warm sources: each
// iteration only cuts the top-k selections and grades them, scoring and
// extracting nothing.
func BenchmarkCompareCacheHit(b *testing.B) {
	g := engineGraph(b, 20_000)
	score, extract := caches(g)
	cfg := Config{Methods: []string{"nc", "df", "nt", "mst"}, MaxConcurrent: 1, Source: score, Extract: extract}
	ctx := context.Background()
	if _, err := Compare(ctx, g, cfg); err != nil { // warm both sources
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Compare(ctx, g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.CacheHits != rep.ScoredMethods {
			b.Fatalf("%d of %d tables cached", rep.CacheHits, rep.ScoredMethods)
		}
	}
}
