package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus per-method scoring throughput on the Fig-9
// Erdős–Rényi workload. Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure/table benchmarks measure the cost of regenerating the
// artifact at reduced scale; the cmd/experiments binary produces the
// full-size outputs recorded in EXPERIMENTS.md.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/occupations"
	"repro/internal/world"
)

// benchWorld is generated once and shared by the country benchmarks.
var benchWorld *exp.Country

func benchCountry(b *testing.B) *exp.Country {
	b.Helper()
	if benchWorld == nil {
		benchWorld = exp.NewCountry(world.Config{Seed: 7, Countries: 60, Products: 150, Years: 3})
	}
	return benchWorld
}

func BenchmarkFig1CommunityRecovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig1(context.Background(), 1, 60, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ScoreDistributions(b *testing.B) {
	c := benchCountry(b)
	g := c.Datasets[1].Latest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig2(context.Background(), "Country Space", g, []float64{1, 2, 3}, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3ToyExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Recovery(b *testing.B) {
	cfg := exp.Fig4Config{Seed: 4, Nodes: 60, MeanDegree: 3,
		Etas: []float64{0.1}, Reps: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := exp.Fig4(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5WeightDistributions(b *testing.B) {
	c := benchCountry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig5(c)
	}
}

func BenchmarkFig6LocalCorrelation(b *testing.B) {
	c := benchCountry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig6(c)
	}
}

func BenchmarkFig7Coverage(b *testing.B) {
	c := benchCountry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Stability(b *testing.B) {
	c := benchCountry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1VarianceValidation(b *testing.B) {
	c := benchCountry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Quality(b *testing.B) {
	c := benchCountry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table2(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudy(b *testing.B) {
	cfg := occupations.Config{Seed: 3, Majors: 5, MinorsPerMajor: 2, OccsPerMinor: 10,
		CoreSkills: 12, GenericSkills: 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.CaseStudy(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 9's subject is per-method scoring throughput; the benchmarks
// below are its data points at a fixed size. The full sweep (25k to
// 800k+ nodes, with fitted scaling exponents) runs via
// `go run ./cmd/experiments fig9`.

func fig9Graph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	return gen.ErdosRenyiGNM(rng, n, n*3/2)
}

func benchScorer(b *testing.B, short string, n int) {
	g := fig9Graph(b, n)
	m, err := LookupMethod(short)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.BackboneWithShare(context.Background(), m, g, 0.1); err != nil {
			if short == "ds" {
				// Sparse ER graphs rarely have the total support the
				// Sinkhorn scaling needs; the paper's Fig 9 could not run
				// DS at scale either. Report as skipped, not failed.
				b.Skipf("doubly stochastic infeasible on this graph: %v", err)
			}
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9NC10k(b *testing.B)   { benchScorer(b, "nc", 10_000) }
func BenchmarkFig9NC100k(b *testing.B)  { benchScorer(b, "nc", 100_000) }
func BenchmarkFig9DF10k(b *testing.B)   { benchScorer(b, "df", 10_000) }
func BenchmarkFig9DF100k(b *testing.B)  { benchScorer(b, "df", 100_000) }
func BenchmarkFig9NT10k(b *testing.B)   { benchScorer(b, "nt", 10_000) }
func BenchmarkFig9NT100k(b *testing.B)  { benchScorer(b, "nt", 100_000) }
func BenchmarkFig9MST10k(b *testing.B)  { benchScorer(b, "mst", 10_000) }
func BenchmarkFig9MST100k(b *testing.B) { benchScorer(b, "mst", 100_000) }
func BenchmarkFig9HSS1k(b *testing.B)   { benchScorer(b, "hss", 1_000) }
func BenchmarkFig9DS1k(b *testing.B)    { benchScorer(b, "ds", 1_000) }

// Core-primitive benchmarks, independent of the experiment drivers.

func BenchmarkNCScoresOnly100k(b *testing.B) {
	g := fig9Graph(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Score(g, WithMethod("nc")); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGraphBuild(b *testing.B, nodes, m int) {
	rng := rand.New(rand.NewSource(3))
	type e struct {
		u, v int
		w    float64
	}
	edges := make([]e, m)
	for i := range edges {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v {
			v = (v + 1) % nodes
		}
		edges[i] = e{u, v, rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(false)
		bld.AddNodes(nodes)
		for _, ed := range edges {
			bld.MustAddEdge(ed.u, ed.v, ed.w)
		}
		bld.Build()
	}
}

func BenchmarkGraphBuild100k(b *testing.B) { benchGraphBuild(b, 100_000, 150_000) }
func BenchmarkGraphBuild1M(b *testing.B)   { benchGraphBuild(b, 700_000, 1_000_000) }

// Extraction benchmarks: pruning a precomputed score table must not
// re-hash the graph — the CSR Subgraph path is measured in isolation
// from scoring.

func benchExtract(b *testing.B, n int, prune func(s *Scores) *Graph) {
	g := fig9Graph(b, n)
	s, err := Score(g, WithMethod("nc"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bb := prune(s); bb.NumNodes() != g.NumNodes() {
			b.Fatal("node set not preserved")
		}
	}
}

func BenchmarkThresholdExtract100k(b *testing.B) {
	benchExtract(b, 100_000, func(s *Scores) *Graph { return s.Threshold(s.ThresholdForK(s.G.NumEdges() / 10)) })
}

func BenchmarkTopKExtract100k(b *testing.B) {
	benchExtract(b, 100_000, func(s *Scores) *Graph { return s.TopK(s.G.NumEdges() / 10) })
}

func BenchmarkTopKExtract1M(b *testing.B) {
	benchExtract(b, 670_000, func(s *Scores) *Graph { return s.TopK(s.G.NumEdges() / 10) })
}
