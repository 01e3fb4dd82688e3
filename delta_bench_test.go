package repro

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Benchmarks for the incremental update path — the PR 10 perf contract.
// BenchmarkApplyDeltaIncremental is the serving unit of work after one
// edge update (apply + materialize + frontier rescore + extract);
// BenchmarkApplyDeltaColdRebuild and BenchmarkApplyDeltaColdServing are
// the from-scratch baselines it is measured against (in-memory rebuild,
// and the daemon-equivalent path that also re-parses the body). Their
// ratio is recorded as post_pr10 in BENCH_baseline.json.

// benchDeltaGraph caches the benchmark base graph (and its serialized
// body for the serving-path baseline) per edge size.
var benchDeltaGraphs = map[int]*Graph{}
var benchDeltaBodies = map[int][]byte{}

func benchDeltaGraph(b *testing.B, m int) *Graph {
	b.Helper()
	if g, ok := benchDeltaGraphs[m]; ok {
		return g
	}
	rng := rand.New(rand.NewSource(1))
	g := gen.BarabasiAlbert(rng, m/8, 8)
	benchDeltaGraphs[m] = g
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, WithFormat("csv")); err != nil {
		b.Fatal(err)
	}
	benchDeltaBodies[m] = buf.Bytes()
	b.Logf("base graph: %d nodes, %d edges, body %d bytes", g.NumNodes(), g.NumEdges(), buf.Len())
	return g
}

// benchUpdate returns the i-th single-edge update over g, cycling a
// deterministic pool of valid endpoint pairs.
func benchUpdates(g *Graph, count int) []Update {
	rng := rand.New(rand.NewSource(2))
	ups := make([]Update, count)
	n := int32(g.NumNodes())
	for i := range ups {
		u := Update{Src: rng.Int31n(n), Dst: rng.Int31n(n), Weight: float64(rng.Intn(90) + 1)}
		for u.Src == u.Dst {
			u.Dst = rng.Int31n(n)
		}
		ups[i] = u
	}
	return ups
}

// BenchmarkApplyDeltaMaterialize measures one single-edge update plus
// materialization (no scoring): the graph-layer cost of the overlay.
func BenchmarkApplyDeltaMaterialize(b *testing.B) {
	for _, m := range []int{100_000, 1_000_000} {
		name := "m=100k"
		if m == 1_000_000 {
			name = "m=1M"
		}
		b.Run(name, func(b *testing.B) {
			base := benchDeltaGraph(b, m)
			ups := benchUpdates(base, 1024)
			d := graph.NewDelta(base, 0)
			d.SetExclusive(true) // serving config: only the latest materialization is kept
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Apply(ups[i%len(ups) : i%len(ups)+1]); err != nil {
					b.Fatal(err)
				}
				d.Graph()
			}
		})
	}
}

// BenchmarkApplyDeltaIncremental measures the full incremental serving
// unit: one single-edge update, materialize, frontier re-score (df) on
// top of the previous table, and threshold extraction.
func BenchmarkApplyDeltaIncremental(b *testing.B) {
	for _, method := range []string{"df", "nc", "nt"} {
		b.Run("method="+method, func(b *testing.B) {
			base := benchDeltaGraph(b, 1_000_000)
			ups := benchUpdates(base, 1024)
			ctx := context.Background()
			mm, err := LookupMethod(method)
			if err != nil {
				b.Fatal(err)
			}
			d := graph.NewDelta(base, 0)
			d.SetExclusive(true) // serving config: only the latest generation is kept
			_, dirty := d.Graph()
			prev, _, err := filter.RescoreDirty(ctx, mm, nil, dirty, filter.ScoreOpts{})
			if err != nil {
				b.Fatal(err)
			}
			params := mm.Defaults()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Apply(ups[i%len(ups) : i%len(ups)+1]); err != nil {
					b.Fatal(err)
				}
				_, dirty = d.Graph()
				s, _, err := filter.RescoreDirty(ctx, mm, prev, dirty, filter.ScoreOpts{})
				if err != nil {
					b.Fatal(err)
				}
				bb := s.Threshold(mm.Cut(params))
				_ = bb.NumEdges()
				prev = s
			}
		})
	}
}

// BenchmarkApplyDeltaBatch measures one batch of updates on a warm
// session: apply, materialize and rescore on top of the previous table.
// Each graph size gets one batch on each side of the delta's m/256
// materialization cutover: at 100k edges 64 updates take the
// incremental path and 1k the full merge, at 1M edges 1k and 8k.
// Iterations alternate two weight sets over the same pairs, so every
// iteration re-weights each touched edge.
func BenchmarkApplyDeltaBatch(b *testing.B) {
	sizes := []struct {
		name     string
		edges, n int
	}{
		{"m=100k/batch=64", 100_000, 64}, {"m=100k/batch=1k", 100_000, 1_000},
		{"m=1M/batch=1k", 1_000_000, 1_000}, {"m=1M/batch=8k", 1_000_000, 8_000},
	}
	for _, method := range []string{"df", "nt"} {
		for _, size := range sizes {
			b.Run("method="+method+"/"+size.name, func(b *testing.B) {
				base := benchDeltaGraph(b, size.edges)
				batches := [2][]Update{benchUpdates(base, size.n), benchUpdates(base, size.n)}
				for i := range batches[1] {
					batches[1][i].Weight = float64(int(batches[0][i].Weight)%90 + 1)
				}
				ctx := context.Background()
				mm, err := LookupMethod(method)
				if err != nil {
					b.Fatal(err)
				}
				d := graph.NewDelta(base, 0)
				d.SetExclusive(true)
				_, dirty := d.Graph()
				prev, _, err := filter.RescoreDirty(ctx, mm, nil, dirty, filter.ScoreOpts{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.Apply(batches[i%2]); err != nil {
						b.Fatal(err)
					}
					_, dirty = d.Graph()
					if prev, _, err = filter.RescoreDirty(ctx, mm, prev, dirty, filter.ScoreOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkApplyDeltaColdRebuild is the in-memory baseline: rebuild the
// graph from its canonical edges, fully re-score, and extract.
func BenchmarkApplyDeltaColdRebuild(b *testing.B) {
	base := benchDeltaGraph(b, 1_000_000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges := append([]Edge(nil), base.Edges()...)
		g := graph.FromEdges(false, base.NumNodes(), edges)
		res, err := BackboneContext(ctx, g, WithMethod("df"))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Backbone.NumEdges()
	}
}

// BenchmarkApplyDeltaColdServing is the daemon-equivalent baseline: a
// changed body means re-parsing the edge list, rebuilding, re-scoring
// and extracting — what every update cost before sessions existed.
func BenchmarkApplyDeltaColdServing(b *testing.B) {
	benchDeltaGraph(b, 1_000_000)
	body := benchDeltaBodies[1_000_000]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ReadGraph(bytes.NewReader(body), WithFormat("csv"))
		if err != nil {
			b.Fatal(err)
		}
		res, err := BackboneContext(ctx, g, WithMethod("df"))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Backbone.NumEdges()
	}
}
