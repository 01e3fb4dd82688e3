package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeKey identifies one canonical edge in oracle bookkeeping.
type edgeKey struct{ src, dst int32 }

// deltaOracle tracks the exact edge set a Delta should represent and
// can produce the cold-rebuild graph for it: the bit-identity oracle.
type deltaOracle struct {
	directed bool
	n        int
	weights  map[edgeKey]float64
	order    []edgeKey // insertion order, for deterministic iteration
}

func newDeltaOracle(base *Graph) *deltaOracle {
	o := &deltaOracle{
		directed: base.Directed(),
		n:        base.NumNodes(),
		weights:  make(map[edgeKey]float64),
	}
	for _, e := range base.Edges() {
		o.set(Update{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
	}
	return o
}

func (o *deltaOracle) set(u Update) {
	src, dst := u.Src, u.Dst
	if !o.directed && src > dst {
		src, dst = dst, src
	}
	k := edgeKey{src, dst}
	if _, seen := o.weights[k]; !seen {
		o.order = append(o.order, k)
	}
	o.weights[k] = u.Weight // 0 marks deletion
}

// build cold-rebuilds the tracked edge set through the Builder
// pipeline — the from-scratch result a materialized Delta must match
// bit for bit.
func (o *deltaOracle) build() *Graph {
	edges := make([]Edge, 0, len(o.order))
	for _, k := range o.order {
		if w := o.weights[k]; w > 0 {
			edges = append(edges, Edge{Src: k.src, Dst: k.dst, Weight: w})
		}
	}
	return FromEdges(o.directed, o.n, edges)
}

// requireBitIdentical fails unless got and want agree on every field a
// cold build populates, comparing floats by bit pattern.
func requireBitIdentical(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.Directed() != want.Directed() || got.NumNodes() != want.NumNodes() {
		t.Fatalf("shape mismatch: got %v, want %v", got, want)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edge count: got %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for i, e := range got.Edges() {
		w := want.Edge(i)
		if e.Src != w.Src || e.Dst != w.Dst || math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("edge %d: got %+v, want %+v", i, e, w)
		}
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("total weight: got %x, want %x (%v vs %v)",
			math.Float64bits(got.TotalWeight()), math.Float64bits(want.TotalWeight()),
			got.TotalWeight(), want.TotalWeight())
	}
	if got.NumIsolates() != want.NumIsolates() {
		t.Fatalf("isolates: got %d, want %d", got.NumIsolates(), want.NumIsolates())
	}
	for u := 0; u < want.NumNodes(); u++ {
		if math.Float64bits(got.OutStrength(u)) != math.Float64bits(want.OutStrength(u)) {
			t.Fatalf("node %d out-strength: got %v, want %v", u, got.OutStrength(u), want.OutStrength(u))
		}
		if math.Float64bits(got.InStrength(u)) != math.Float64bits(want.InStrength(u)) {
			t.Fatalf("node %d in-strength: got %v, want %v", u, got.InStrength(u), want.InStrength(u))
		}
		ga, wa := got.Out(u), want.Out(u)
		if len(ga) != len(wa) {
			t.Fatalf("node %d out-degree: got %d, want %d", u, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("node %d out-arc %d: got %+v, want %+v", u, i, ga[i], wa[i])
			}
		}
		gi, wi := got.In(u), want.In(u)
		if len(gi) != len(wi) {
			t.Fatalf("node %d in-degree: got %d, want %d", u, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] {
				t.Fatalf("node %d in-arc %d: got %+v, want %+v", u, i, gi[i], wi[i])
			}
		}
	}
}

// randomBase builds a reproducible random base graph.
func randomBase(rng *rand.Rand, directed bool, n, m int) *Graph {
	b := NewBuilder(directed)
	b.AddNodes(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, float64(rng.Intn(1000)+1)/7)
	}
	return b.Build()
}

// randomUpdate draws an upsert or delete over n nodes. Deletions come
// up often enough to hit both existing-edge and absent-edge tombstones.
func randomUpdate(rng *rand.Rand, n int) Update {
	u := Update{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	for u.Src == u.Dst {
		u.Dst = int32(rng.Intn(n))
	}
	if rng.Intn(4) != 0 { // 3/4 upserts, 1/4 deletes
		u.Weight = float64(rng.Intn(500)+1) / 3
	}
	return u
}

// TestDeltaBitIdenticalToColdRebuild is the core property test: after
// any random update stream — upserts, deletes, repeated touches of the
// same pair, multiple batches per materialization, materializations at
// random points, and compaction boundaries (small limits force several
// compactions per stream) — every materialized graph is bit-identical
// to a cold rebuild of the same edge set.
func TestDeltaBitIdenticalToColdRebuild(t *testing.T) {
	for _, exclusive := range []bool{false, true} {
		for _, directed := range []bool{false, true} {
			for _, limit := range []int{1, 7, 64, 0} { // 0 = DefaultCompactLimit: never compacts here
				rng := rand.New(rand.NewSource(int64(42 + limit)))
				n, m := 40, 150
				base := randomBase(rng, directed, n, m)
				oracle := newDeltaOracle(base)
				d := NewDelta(base, limit)
				// Exclusive mode recycles the previous materialization in
				// place; the comparison below never holds an old graph, so
				// the surrender contract is respected and the result must
				// still be bit-identical.
				d.SetExclusive(exclusive)

				for step := 0; step < 60; step++ {
					batch := make([]Update, rng.Intn(8)+1)
					for i := range batch {
						batch[i] = randomUpdate(rng, n)
						oracle.set(batch[i])
					}
					if err := d.Apply(batch); err != nil {
						t.Fatalf("exclusive=%v directed=%v limit=%d step %d: %v", exclusive, directed, limit, step, err)
					}
					if rng.Intn(3) == 0 || step == 59 {
						g, _ := d.Graph()
						requireBitIdentical(t, g, oracle.build())
					}
				}
			}
		}
	}
}

// TestDeltaDirtyNodes pins the Dirty contract: Nodes are exactly the
// sorted unique endpoints of updates applied since the previous
// materialization, Base/For tie consecutive materializations together,
// and repeated Graph() calls return the same cached record.
func TestDeltaDirtyNodes(t *testing.T) {
	base := FromEdges(false, 6, []Edge{
		{Src: 0, Dst: 1, Weight: 3},
		{Src: 1, Dst: 2, Weight: 2},
		{Src: 3, Dst: 4, Weight: 1},
	})
	d := NewDelta(base, 0)

	g0, dirty0 := d.Graph()
	if g0 != base || dirty0.Base != base || dirty0.For != base || len(dirty0.Nodes) != 0 {
		t.Fatalf("empty materialization: got %+v", dirty0)
	}

	if err := d.Apply([]Update{{Src: 4, Dst: 1, Weight: 9}, {Src: 0, Dst: 1, Weight: 0}}); err != nil {
		t.Fatal(err)
	}
	g1, dirty1 := d.Graph()
	if dirty1.Base != base || dirty1.For != g1 {
		t.Fatalf("dirty1 graphs: base ok=%v for ok=%v", dirty1.Base == base, dirty1.For == g1)
	}
	if want := []int32{0, 1, 4}; len(dirty1.Nodes) != len(want) {
		t.Fatalf("dirty1 nodes: got %v, want %v", dirty1.Nodes, want)
	} else {
		for i, u := range want {
			if dirty1.Nodes[i] != u {
				t.Fatalf("dirty1 nodes: got %v, want %v", dirty1.Nodes, want)
			}
		}
	}

	// Cached: same record again without intervening Apply.
	g1b, dirty1b := d.Graph()
	if g1b != g1 || dirty1b.Base != dirty1.Base || len(dirty1b.Nodes) != len(dirty1.Nodes) {
		t.Fatalf("Graph() not cached: %+v vs %+v", dirty1b, dirty1)
	}

	// Next round chains off g1.
	if err := d.Apply([]Update{{Src: 2, Dst: 5, Weight: 4}}); err != nil {
		t.Fatal(err)
	}
	g2, dirty2 := d.Graph()
	if dirty2.Base != g1 || dirty2.For != g2 {
		t.Fatal("dirty2 does not chain from previous materialization")
	}
	if len(dirty2.Nodes) != 2 || dirty2.Nodes[0] != 2 || dirty2.Nodes[1] != 5 {
		t.Fatalf("dirty2 nodes: got %v, want [2 5]", dirty2.Nodes)
	}
}

// TestDeltaValidation pins batch-level validation: any invalid update
// rejects the whole batch and leaves the Delta unchanged.
func TestDeltaValidation(t *testing.T) {
	base := FromEdges(false, 4, []Edge{{Src: 0, Dst: 1, Weight: 1}})
	bad := [][]Update{
		{{Src: 0, Dst: 4, Weight: 1}},                              // node out of range
		{{Src: -1, Dst: 1, Weight: 1}},                             // negative node
		{{Src: 2, Dst: 2, Weight: 1}},                              // self-loop
		{{Src: 0, Dst: 1, Weight: -2}},                             // negative weight
		{{Src: 0, Dst: 1, Weight: math.NaN()}},                     // NaN weight
		{{Src: 0, Dst: 2, Weight: 5}, {Src: 3, Dst: 3, Weight: 1}}, // valid then invalid
	}
	for i, batch := range bad {
		d := NewDelta(base, 0)
		if err := d.Apply(batch); err == nil {
			t.Fatalf("batch %d: expected error", i)
		}
		if d.Pending() != 0 {
			t.Fatalf("batch %d: failed Apply left %d pending entries", i, d.Pending())
		}
		g, _ := d.Graph()
		if g != base {
			t.Fatalf("batch %d: failed Apply changed the graph", i)
		}
	}
}

// TestWithUpdates covers the one-shot entry point, including undirected
// canonicalization of reversed pairs and last-wins within a batch.
func TestWithUpdates(t *testing.T) {
	base := FromEdges(false, 4, []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}})
	d, err := base.WithUpdates([]Update{
		{Src: 2, Dst: 1, Weight: 7}, // reversed pair overwrites (1,2)
		{Src: 3, Dst: 0, Weight: 5}, // insert as (0,3)
		{Src: 0, Dst: 3, Weight: 2}, // last-wins over the previous line
		{Src: 0, Dst: 1, Weight: 0}, // delete
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := d.Graph()
	oracle := FromEdges(false, 4, []Edge{
		{Src: 1, Dst: 2, Weight: 7},
		{Src: 0, Dst: 3, Weight: 2},
	})
	requireBitIdentical(t, g, oracle)
	if w, ok := g.Weight(1, 2); !ok || w != 7 {
		t.Fatalf("Weight(1,2) = %v, %v", w, ok)
	}
	if _, ok := g.Weight(0, 1); ok {
		t.Fatal("deleted edge (0,1) still present")
	}
}

// TestDeltaCompaction pins compaction mechanics: once the patch reaches
// the limit, the materialized graph becomes the new base and the patch
// drains, while results remain bit-identical throughout.
func TestDeltaCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomBase(rng, false, 20, 60)
	oracle := newDeltaOracle(base)
	d := NewDelta(base, 4)

	for step := 0; step < 30; step++ {
		u := randomUpdate(rng, 20)
		oracle.set(u)
		if err := d.Apply([]Update{u}); err != nil {
			t.Fatal(err)
		}
		g, _ := d.Graph()
		requireBitIdentical(t, g, oracle.build())
		if d.Pending() >= 4 {
			t.Fatalf("step %d: patch not compacted (%d pending)", step, d.Pending())
		}
		if d.Pending() == 0 && d.Base() != g {
			t.Fatalf("step %d: compaction did not promote the materialized graph to base", step)
		}
	}
}

// TestDeltaLazyArcsIsolation checks that a materialized overlay serving
// only strength/degree reads never disturbs the base graph's arrays,
// and that adjacency assembled lazily matches the eager build.
func TestDeltaLazyArcsIsolation(t *testing.T) {
	base := FromEdges(false, 5, []Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 2},
		{Src: 2, Dst: 3, Weight: 3},
	})
	baseStrength := base.OutStrength(1)
	d, err := base.WithUpdates([]Update{{Src: 1, Dst: 3, Weight: 10}})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := d.Graph()
	// Strength/degree reads work before any arc assembly.
	if got, want := g.OutStrength(1), 1.0+2+10; got != want {
		t.Fatalf("overlay strength: got %v, want %v", got, want)
	}
	if g.OutDegree(1) != 3 {
		t.Fatalf("overlay degree: got %d, want 3", g.OutDegree(1))
	}
	if base.OutStrength(1) != baseStrength || base.OutDegree(1) != 2 {
		t.Fatal("overlay mutated the base graph")
	}
	// Adjacency (assembled lazily on first touch) matches a cold build.
	requireBitIdentical(t, g, FromEdges(false, 5, []Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 2},
		{Src: 1, Dst: 3, Weight: 10},
		{Src: 2, Dst: 3, Weight: 3},
	}))
}

// FuzzApplyDelta decodes arbitrary bytes as an update stream over a
// small fixed base graph — 4-byte records: endpoints, weight (0 =
// delete), and a materialize/flush opcode — and checks every
// materialization against the cold-rebuild oracle, through both a
// copying overlay and an exclusive (in-place) one in lockstep.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 3, 9, 0, 1, 2, 0, 1})
	f.Add([]byte{7, 3, 200, 2, 3, 7, 0, 0, 5, 6, 1, 1, 6, 5, 2, 2})

	rng := rand.New(rand.NewSource(99))
	baseEdges := randomBase(rng, false, 12, 30).Edges()

	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 12
		base := FromEdges(false, n, baseEdges)
		oracle := newDeltaOracle(base)
		d := NewDelta(base, 8) // small limit: fuzz crosses compaction often
		// Lockstep exclusive twin: same stream through a move-semantics
		// overlay, checked against the same oracle at the same points.
		dx := NewDelta(base, 8)
		dx.SetExclusive(true)

		var batch []Update
		flush := func() {
			if err := d.Apply(batch); err != nil {
				t.Fatalf("Apply(%v): %v", batch, err)
			}
			if err := dx.Apply(batch); err != nil {
				t.Fatalf("exclusive Apply(%v): %v", batch, err)
			}
			for _, u := range batch {
				oracle.set(u)
			}
			batch = batch[:0]
		}
		check := func() {
			want := oracle.build()
			g, _ := d.Graph()
			requireBitIdentical(t, g, want)
			gx, _ := dx.Graph()
			requireBitIdentical(t, gx, want)
		}
		for i := 0; i+4 <= len(data); i += 4 {
			src := int32(data[i]) % n
			dst := int32(data[i+1]) % n
			if src == dst {
				continue
			}
			batch = append(batch, Update{Src: src, Dst: dst, Weight: float64(data[i+2]) / 8})
			switch data[i+3] % 3 {
			case 0:
				flush()
				check()
			case 1:
				flush()
			}
		}
		flush()
		check()
	})
}

// TestDeltaRowDiff pins the RowDiff every materialization reports, on
// both sides of the incremental/full-merge cutover (batches of 3 and of
// m/4 updates over ~150 edges) and for a Graph() with no updates: Copies
// and Changed partition For's rows in ascending, disjoint ranges, copied
// rows equal the previous materialization's rows bit for bit, and
// Frontier is exactly the rows incident to Dirty.Nodes. The previous
// edges are snapshotted because an exclusive overlay may overwrite them.
func TestDeltaRowDiff(t *testing.T) {
	for _, exclusive := range []bool{false, true} {
		for _, directed := range []bool{false, true} {
			for _, limit := range []int{0, 50} {
				rng := rand.New(rand.NewSource(7))
				n := 40
				base := randomBase(rng, directed, n, 150)
				d := NewDelta(base, limit)
				d.SetExclusive(exclusive)
				name := func(step int) string {
					return fmt.Sprintf("exclusive=%v directed=%v limit=%d step %d", exclusive, directed, limit, step)
				}
				prev := append([]Edge(nil), base.Edges()...)
				prevG := base
				for step := 0; step < 24; step++ {
					size := 0 // step 0: a Graph() with no updates
					if step > 0 {
						size = 3
						if step%3 == 0 {
							size = len(prev)/4 + 20
						}
					}
					batch := make([]Update, size)
					for i := range batch {
						batch[i] = randomUpdate(rng, n)
					}
					if err := d.Apply(batch); err != nil {
						t.Fatalf("%s: %v", name(step), err)
					}
					g, dirty := d.Graph()
					if dirty.Diff == nil {
						t.Fatalf("%s: Diff is nil", name(step))
					}
					if dirty.Base != prevG || dirty.For != g {
						t.Fatalf("%s: dirty record does not chain from the previous materialization", name(step))
					}
					checkRowDiff(t, name(step), prev, g, dirty)
					prev, prevG = append([]Edge(nil), g.Edges()...), g
				}
			}
		}
	}
}

// checkRowDiff verifies one Dirty record's RowDiff against the previous
// materialization's edges and the new graph.
func checkRowDiff(t *testing.T, name string, prev []Edge, g *Graph, dirty Dirty) {
	t.Helper()
	cur := g.Edges()
	diff := dirty.Diff
	covered := make([]int, len(cur))
	baseEnd, forEnd := int32(0), int32(0)
	for k, sc := range diff.Copies {
		if sc.Len <= 0 || sc.BaseLo < baseEnd || sc.ForLo < forEnd ||
			int(sc.BaseLo+sc.Len) > len(prev) || int(sc.ForLo+sc.Len) > len(cur) {
			t.Fatalf("%s: copy %d %+v out of order or out of range", name, k, sc)
		}
		baseEnd, forEnd = sc.BaseLo+sc.Len, sc.ForLo+sc.Len
		for r := int32(0); r < sc.Len; r++ {
			b, f := prev[sc.BaseLo+r], cur[sc.ForLo+r]
			if b.Src != f.Src || b.Dst != f.Dst || math.Float64bits(b.Weight) != math.Float64bits(f.Weight) {
				t.Fatalf("%s: copied row %d = %+v, base row %d = %+v", name, sc.ForLo+r, f, sc.BaseLo+r, b)
			}
			covered[sc.ForLo+r]++
		}
	}
	for k, r := range diff.Changed {
		if k > 0 && r <= diff.Changed[k-1] {
			t.Fatalf("%s: Changed not strictly ascending: %v", name, diff.Changed)
		}
		covered[r]++
	}
	for r, c := range covered {
		if c != 1 {
			t.Fatalf("%s: row %d covered %d times by Copies and Changed", name, r, c)
		}
	}
	dirtyNode := make(map[int32]bool, len(dirty.Nodes))
	for _, u := range dirty.Nodes {
		dirtyNode[u] = true
	}
	var want []int32
	for r, e := range cur {
		if dirtyNode[e.Src] || dirtyNode[e.Dst] {
			want = append(want, int32(r))
		}
	}
	if !slices.Equal(diff.Frontier, want) {
		t.Fatalf("%s: Frontier = %v, want %v", name, diff.Frontier, want)
	}
}
