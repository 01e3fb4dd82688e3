package filter_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	_ "repro/internal/backbone"
	_ "repro/internal/core"
	"repro/internal/filter"
	"repro/internal/graph"
)

// carryGraph is a random count-weighted graph: heavy-tailed integral
// weights, so df keeps a few percent of its edges, as it does of count
// data.
func carryGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(false)
	b.AddNodes(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.MustAddEdge(u, v, math.Ceil(math.Exp(1.5*rng.NormFloat64())))
		}
	}
	return b.Build()
}

// carryBatch draws an update batch of the given size: upserts of new
// and existing edges with fresh weights, and deletions. Some batches
// re-weight the graph's last row to a weight every cut keeps, so a
// re-scored row also lands past every carried one.
func carryBatch(rng *rand.Rand, g *graph.Graph, size int) []graph.Update {
	batch := make([]graph.Update, size)
	n := int32(g.NumNodes())
	for i := range batch {
		u := graph.Update{Src: rng.Int31n(n), Dst: rng.Int31n(n)}
		switch {
		case i == 0 && rng.Intn(4) == 0:
			batch[i] = graph.Update{Src: n - 2, Dst: n - 1, Weight: float64(1000 + rng.Intn(1000))}
			continue
		case rng.Intn(2) == 0 && g.NumEdges() > 0:
			e := g.Edge(rng.Intn(g.NumEdges()))
			u.Src, u.Dst = e.Src, e.Dst
		}
		for u.Src == u.Dst {
			u.Dst = rng.Int31n(n)
		}
		if rng.Intn(4) != 0 {
			u.Weight = math.Ceil(math.Exp(1.5 * rng.NormFloat64()))
		}
		batch[i] = u
	}
	return batch
}

// memoFree copies s into a table that remembers no cut.
func memoFree(s *filter.Scores) *filter.Scores {
	return &filter.Scores{G: s.G, Score: slices.Clone(s.Score), Aux: s.Aux, Method: s.Method}
}

// requireSameCut fails unless got and want keep the same edges and
// touch the same number of nodes.
func requireSameCut(t *testing.T, what string, got, want graph.Selection) {
	t.Helper()
	if !slices.Equal(got.IDs, want.IDs) {
		t.Fatalf("%s: kept %d ids, fresh Select keeps %d (first difference at %d)", what, len(got.IDs), len(want.IDs), firstDiff(got.IDs, want.IDs))
	}
	if got.NumConnected() != want.NumConnected() {
		t.Fatalf("%s: NumConnected %d, fresh Select %d", what, got.NumConnected(), want.NumConnected())
	}
}

func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func lookupCut(t *testing.T, name string, overrides filter.Params) (*filter.Method, float64) {
	t.Helper()
	m, err := filter.Default.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Resolve(overrides)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Cut(p)
}

// TestRescoreDirtyCarriesCut: a table that RescoreDirty brings forward
// on its incremental path inherits its predecessor's threshold cut, and
// that carried cut keeps exactly the edges (and touches exactly the
// nodes) a fresh Select of the same table keeps. Random batches land on
// both sides of the delta's incremental/full-merge cutover (m/256) and
// cross compaction, for df (endpoint dirtiness) and nt (edge
// dirtiness), with the exclusive delta on and off.
func TestRescoreDirtyCarriesCut(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		method    string
		overrides filter.Params
	}{
		{"df", nil},
		{"nt", filter.Params{"threshold": 4}},
	} {
		for _, exclusive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/exclusive=%v", tc.method, exclusive), func(t *testing.T) {
				m, cut := lookupCut(t, tc.method, tc.overrides)
				rng := rand.New(rand.NewSource(int64(len(tc.method)) + 7))
				base := carryGraph(rng, 300, 2500)
				d := graph.NewDelta(base, 512) // the stream crosses compaction
				d.SetExclusive(exclusive)
				prev, err := m.ScoreCtx(ctx, base, filter.ScoreOpts{})
				if err != nil {
					t.Fatal(err)
				}
				prev.Select(cut)
				g := base
				for step := 0; step < 40; step++ {
					size := 1 + rng.Intn(4)
					if step%3 == 2 {
						size = 20 + rng.Intn(60) // past m/256 + 8 rows: the full merge
					}
					if err := d.Apply(carryBatch(rng, g, size)); err != nil {
						t.Fatal(err)
					}
					var dirty graph.Dirty
					g, dirty = d.Graph()
					s, _, err := filter.RescoreDirty(ctx, m, prev, dirty, filter.ScoreOpts{})
					if err != nil {
						t.Fatal(err)
					}
					ct, carried, ok := filter.LastCut(s)
					if !ok || ct != cut {
						t.Fatalf("step %d: table carries cut (%v, %v), want %v", step, ct, ok, cut)
					}
					want := memoFree(s).Select(cut)
					what := fmt.Sprintf("step %d (batch %d)", step, size)
					requireSameCut(t, what, carried, want)
					requireSameCut(t, what+" Select", s.Select(cut), want)
					prev = s
				}
			})
		}
	}
}

// TestRescoreDirtyCarriesCutFallbacks: every table RescoreDirty does
// not bring forward incrementally starts with no cut, and a cut other
// than the remembered one is computed afresh; either way the cut agrees
// with a fresh Select.
func TestRescoreDirtyCarriesCutFallbacks(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	base := carryGraph(rng, 200, 1500)
	step := func(d *graph.Delta, g *graph.Graph) (*graph.Graph, graph.Dirty) {
		t.Helper()
		if err := d.Apply(carryBatch(rng, g, 3)); err != nil {
			t.Fatal(err)
		}
		return d.Graph()
	}
	score := func(m *filter.Method, g *graph.Graph) *filter.Scores {
		t.Helper()
		s, err := m.ScoreCtx(ctx, g, filter.ScoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rescore := func(m *filter.Method, old *filter.Scores, dirty graph.Dirty) *filter.Scores {
		t.Helper()
		s, _, err := filter.RescoreDirty(ctx, m, old, dirty, filter.ScoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fresh := func(what string, s *filter.Scores, cut float64) {
		t.Helper()
		if _, _, ok := filter.LastCut(s); ok {
			t.Fatalf("%s: a fallback table carries a cut", what)
		}
		requireSameCut(t, what, s.Select(cut), memoFree(s).Select(cut))
	}
	df, dfCut := lookupCut(t, "df", nil)

	t.Run("nc", func(t *testing.T) {
		nc, ncCut := lookupCut(t, "nc", nil)
		d := graph.NewDelta(base, 0)
		old := score(nc, base)
		old.Select(ncCut)
		_, dirty := step(d, base)
		fresh("nc", rescore(nc, old, dirty), ncCut)
	})
	t.Run("skipped-generation", func(t *testing.T) {
		d := graph.NewDelta(base, 0)
		old := score(df, base)
		old.Select(dfCut)
		g, _ := step(d, base)
		_, dirty := step(d, g)
		fresh("skipped generation", rescore(df, old, dirty), dfCut)
	})
	t.Run("no-diff", func(t *testing.T) {
		d := graph.NewDelta(base, 0)
		old := score(df, base)
		old.Select(dfCut)
		_, dirty := step(d, base)
		dirty.Diff = nil
		fresh("no diff", rescore(df, old, dirty), dfCut)
	})
	t.Run("top-k", func(t *testing.T) {
		d := graph.NewDelta(base, 0)
		old := score(df, base)
		k := old.SelectTop(100).Len()
		_, dirty := step(d, base)
		s := rescore(df, old, dirty)
		if _, _, ok := filter.LastCut(s); ok {
			t.Fatal("a top-k cut was carried")
		}
		requireSameCut(t, "top-k", s.SelectTop(k), memoFree(s).SelectTop(k))
	})
	t.Run("other-cut", func(t *testing.T) {
		d := graph.NewDelta(base, 0)
		old := score(df, base)
		old.Select(dfCut)
		_, dirty := step(d, base)
		s := rescore(df, old, dirty)
		other := math.Nextafter(dfCut, 0)
		requireSameCut(t, "other cut", s.Select(other), memoFree(s).Select(other))
		requireSameCut(t, "cut after other", s.Select(dfCut), memoFree(s).Select(dfCut))
	})
}

// TestSharedTableConcurrentCuts: a table shared by concurrent readers,
// as score-cache hits share one, serves cuts at two thresholds, node
// counts and encoded replies from many goroutines at once, each equal
// to the same read made alone.
func TestSharedTableConcurrentCuts(t *testing.T) {
	ctx := context.Background()
	df, cut := lookupCut(t, "df", nil)
	s, err := df.ScoreCtx(ctx, carryGraph(rand.New(rand.NewSource(9)), 300, 3000), filter.ScoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cuts := []float64{cut, math.Nextafter(cut, 0) - 1e-3}
	type reply struct {
		ids   []int32
		nodes int
		body  []byte
	}
	want := make([]reply, len(cuts))
	for i, c := range cuts {
		sel := memoFree(s).Select(c)
		var buf bytes.Buffer
		if err := graph.WriteSelection(&buf, sel, graph.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		want[i] = reply{sel.IDs, sel.NumConnected(), buf.Bytes()}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range 40 {
				c := (w + i) % len(cuts)
				sel := s.Select(cuts[c])
				nodes := sel.NumConnected()
				buf.Reset()
				err := graph.WriteSelection(&buf, sel, graph.WriteOptions{})
				switch {
				case err != nil:
					errs <- err
				case !slices.Equal(sel.IDs, want[c].ids) || nodes != want[c].nodes || !bytes.Equal(buf.Bytes(), want[c].body):
					errs <- fmt.Errorf("cut %v: %d ids, %d nodes, %d bytes; alone %d, %d, %d",
						cuts[c], len(sel.IDs), nodes, buf.Len(), len(want[c].ids), want[c].nodes, len(want[c].body))
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
