package repro

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/graph"
)

// This file is the registry-wide incremental-correctness harness: for
// every registered method, score tables and backbones produced through
// the Delta + WithDirtyScores path must be bit-identical to a cold
// rebuild + full rescore of the same edge set — whether the method
// takes the frontier re-scoring fast path (nt, df), the global
// re-score path (nc, nc-binomial), or the transparent full-rescore
// fallback (hss, ds, kcore, no delta capability declared).

// incrementalHarness drives one method through a random update stream,
// chaining tables with WithDirtyScores, and checks each step against
// the cold oracle.
func incrementalHarness(t *testing.T, m *Method) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(17 + m.Order)))
	const n = 30
	b := NewBuilder(false)
	b.AddNodes(n)
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.MustAddEdge(u, v, float64(rng.Intn(50)+1))
		}
	}
	base := b.Build()

	state := make(map[[2]int32]float64)
	var order [][2]int32
	for _, e := range base.Edges() {
		state[[2]int32{e.Src, e.Dst}] = e.Weight
		order = append(order, [2]int32{e.Src, e.Dst})
	}
	coldBuild := func() *Graph {
		cb := NewBuilder(false)
		cb.AddNodes(n)
		for _, k := range order {
			if w := state[k]; w > 0 {
				cb.MustAddEdge(int(k[0]), int(k[1]), w)
			}
		}
		return cb.Build()
	}

	d := graph.NewDelta(base, 16) // small limit: the stream crosses compaction
	var prev *Scores
	ctx := context.Background()

	for step := 0; step < 12; step++ {
		batch := make([]Update, rng.Intn(5)+1)
		for i := range batch {
			u := Update{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
			for u.Src == u.Dst {
				u.Dst = int32(rng.Intn(n))
			}
			if rng.Intn(4) != 0 {
				u.Weight = float64(rng.Intn(40) + 1)
			}
			batch[i] = u
			src, dst := u.Src, u.Dst
			if src > dst {
				src, dst = dst, src
			}
			k := [2]int32{src, dst}
			if _, seen := state[k]; !seen {
				order = append(order, k)
			}
			state[k] = u.Weight
		}
		if err := d.Apply(batch); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g, dirty := d.Graph()

		inc, incErr := ScoreContext(ctx, g, WithMethod(m.Name), WithDirtyScores(prev, dirty))
		want, wantErr := ScoreContext(ctx, coldBuild(), WithMethod(m.Name))
		if (incErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: incremental err %v vs cold err %v", step, incErr, wantErr)
		}
		if incErr != nil {
			prev = nil
			continue
		}
		requireTablesBitIdentical(t, m.Name, step, inc, want)

		// Backbones prune bit-identical tables identically; still pin
		// the end-to-end path for methods with a native threshold rule.
		if m.Cut != nil {
			incB, err := BackboneContext(ctx, g, WithMethod(m.Name), WithDirtyScores(prev, dirty))
			if err != nil {
				t.Fatalf("step %d: incremental backbone: %v", step, err)
			}
			wantB, err := BackboneContext(ctx, coldBuild(), WithMethod(m.Name))
			if err != nil {
				t.Fatalf("step %d: cold backbone: %v", step, err)
			}
			requireBackbonesEqual(t, m.Name, step, incB.Backbone, wantB.Backbone)
		}
		prev = inc
	}
}

func requireTablesBitIdentical(t *testing.T, method string, step int, got, want *Scores) {
	t.Helper()
	if len(got.Score) != len(want.Score) {
		t.Fatalf("%s step %d: table size %d vs %d", method, step, len(got.Score), len(want.Score))
	}
	for i := range got.Score {
		if math.Float64bits(got.Score[i]) != math.Float64bits(want.Score[i]) {
			t.Fatalf("%s step %d: score row %d: %v vs %v", method, step, i, got.Score[i], want.Score[i])
		}
	}
	if len(got.Aux) != len(want.Aux) {
		t.Fatalf("%s step %d: aux columns %d vs %d", method, step, len(got.Aux), len(want.Aux))
	}
	//lint:detiter-ok comparison visits each column once; failure text names the column
	for name, col := range want.Aux {
		gcol, ok := got.Aux[name]
		if !ok || len(gcol) != len(col) {
			t.Fatalf("%s step %d: aux column %q missing or mis-sized", method, step, name)
		}
		for i := range col {
			if math.Float64bits(gcol[i]) != math.Float64bits(col[i]) {
				t.Fatalf("%s step %d: aux %q row %d: %v vs %v", method, step, name, i, gcol[i], col[i])
			}
		}
	}
}

func requireBackbonesEqual(t *testing.T, method string, step int, got, want *Graph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s step %d: backbone edges %d vs %d", method, step, got.NumEdges(), want.NumEdges())
	}
	for i, e := range got.Edges() {
		w := want.Edge(i)
		if e.Src != w.Src || e.Dst != w.Dst || math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%s step %d: backbone edge %d: %+v vs %+v", method, step, i, e, w)
		}
	}
}

// TestIncrementalBitIdenticalAllMethods runs the harness over every
// registered method that can score — the frontier paths (nt, df), the
// global paths (nc, nc-binomial) and the full-rescore fallbacks (hss,
// ds, kcore) all pass through the same oracle.
func TestIncrementalBitIdenticalAllMethods(t *testing.T) {
	ran := 0
	for _, m := range Methods() {
		if !m.CanScore() {
			continue // mst: extract-only, nothing to re-score
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			incrementalHarness(t, m)
		})
		ran++
	}
	if ran < 7 {
		t.Fatalf("harness covered %d methods; expected at least 7 registered scoring methods", ran)
	}
}

// TestRescoreDirtyCounts pins that the frontier signatures actually
// re-score less than the full table (the perf contract behind the
// bit-identity one), that fallback methods report a full rescore, and
// that Method.RescoresLocally names exactly the methods that do not.
// The last case starts from a table above the 4096-edge cutoff, scored
// on every CPU (and with the deprecated WithParallel): multi-core
// scoring must not cost the next update its frontier rescore.
func TestRescoreDirtyCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200
	b := NewBuilder(false)
	b.AddNodes(n)
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.MustAddEdge(u, v, float64(rng.Intn(50)+1))
		}
	}
	small := b.Build()
	big := bigTestGraph(t, 11_000)
	ctx := context.Background()

	cases := []struct {
		method  string
		base    *Graph
		opts    []Option
		partial bool // frontier methods re-score strictly less than the table
	}{
		{method: "nt", base: small, partial: true},
		{method: "df", base: small, partial: true},
		{method: "nc", base: small},
		{method: "nc-binomial", base: small},
		{method: "hss", base: small},
		{method: "ds", base: small},
		{method: "kcore", base: small}, // no capability: transparent full fallback
		{method: "df", base: big, opts: []Option{WithParallel()}, partial: true},
	}
	for _, tc := range cases {
		m, err := LookupMethod(tc.method)
		if err != nil {
			t.Fatal(err)
		}
		old, err := ScoreContext(ctx, tc.base, append(tc.opts, WithMethod(tc.method))...)
		if err != nil {
			t.Fatal(err)
		}
		d := graph.NewDelta(tc.base, 0)
		if err := d.Apply([]Update{{Src: 0, Dst: 1, Weight: 7}}); err != nil {
			t.Fatal(err)
		}
		g, dirty := d.Graph()
		s, rescored, err := filter.RescoreDirty(ctx, m, old, dirty, filter.ScoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if m.RescoresLocally() != tc.partial {
			t.Fatalf("%s: RescoresLocally() = %v, want %v", tc.method, m.RescoresLocally(), tc.partial)
		}
		if tc.partial {
			if rescored == 0 || rescored >= g.NumEdges() {
				t.Fatalf("%s: rescored %d of %d rows; expected a strict subset", tc.method, rescored, g.NumEdges())
			}
		} else if rescored != g.NumEdges() {
			t.Fatalf("%s: rescored %d of %d rows; expected full rescore", tc.method, rescored, g.NumEdges())
		}
		want, err := ScoreContext(ctx, g, WithMethod(tc.method))
		if err != nil {
			t.Fatal(err)
		}
		requireTablesBitIdentical(t, tc.method, 0, s, want)
	}
}

// TestIncrementalExclusiveBitIdentical drives the scoring methods
// through an exclusive (move-semantics) overlay — the daemon session
// configuration, where each generation's graph arrays and score columns
// are recycled in place — chaining every step's table out of the
// previous one, and checks each step against a cold rebuild + full
// rescore. Unlike incrementalHarness, the previous table is used
// exactly once per step: the surrender contract forbids re-reading it.
func TestIncrementalExclusiveBitIdentical(t *testing.T) {
	for _, method := range []string{"nt", "df", "nc"} {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			m, err := LookupMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			const n = 30
			b := NewBuilder(false)
			b.AddNodes(n)
			for i := 0; i < 120; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					b.MustAddEdge(u, v, float64(rng.Intn(50)+1))
				}
			}
			base := b.Build()

			state := make(map[[2]int32]float64)
			var order [][2]int32
			for _, e := range base.Edges() {
				state[[2]int32{e.Src, e.Dst}] = e.Weight
				order = append(order, [2]int32{e.Src, e.Dst})
			}
			coldBuild := func() *Graph {
				cb := NewBuilder(false)
				cb.AddNodes(n)
				for _, k := range order {
					if w := state[k]; w > 0 {
						cb.MustAddEdge(int(k[0]), int(k[1]), w)
					}
				}
				return cb.Build()
			}

			d := graph.NewDelta(base, 16) // small limit: the stream crosses compaction
			d.SetExclusive(true)
			ctx := context.Background()
			var prev *Scores

			for step := 0; step < 25; step++ {
				// Occasionally stack two Apply calls before materializing,
				// so sinceLast batches merge.
				applies := rng.Intn(2) + 1
				for a := 0; a < applies; a++ {
					batch := make([]Update, rng.Intn(5)+1)
					for i := range batch {
						u := Update{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
						for u.Src == u.Dst {
							u.Dst = int32(rng.Intn(n))
						}
						if rng.Intn(4) != 0 {
							u.Weight = float64(rng.Intn(40) + 1)
						}
						batch[i] = u
						src, dst := u.Src, u.Dst
						if src > dst {
							src, dst = dst, src
						}
						k := [2]int32{src, dst}
						if _, seen := state[k]; !seen {
							order = append(order, k)
						}
						state[k] = u.Weight
					}
					if err := d.Apply(batch); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				g, dirty := d.Graph()
				if !dirty.Exclusive {
					t.Fatalf("step %d: dirty record lost the exclusive flag", step)
				}

				inc, _, err := filter.RescoreDirty(ctx, m, prev, dirty, filter.ScoreOpts{})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				want, err := ScoreContext(ctx, coldBuild(), WithMethod(method))
				if err != nil {
					t.Fatalf("step %d: cold: %v", step, err)
				}
				requireTablesBitIdentical(t, method, step, inc, want)

				if m.Cut != nil {
					incB, err := BackboneContext(ctx, g, WithMethod(method), WithScores(inc))
					if err != nil {
						t.Fatalf("step %d: incremental backbone: %v", step, err)
					}
					wantB, err := BackboneContext(ctx, coldBuild(), WithMethod(method))
					if err != nil {
						t.Fatalf("step %d: cold backbone: %v", step, err)
					}
					requireBackbonesEqual(t, method, step, incB.Backbone, wantB.Backbone)
				}
				prev = inc
			}
		})
	}
}
