package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refBuild is the seed's map-of-pairs Builder, kept as the oracle for
// the sort-merge path: weights accumulate per (src,dst) key in
// insertion order, exactly as `weights[key] += w` did. It returns the
// canonical edge slice plus strengths and total computed the old way.
type refGraph struct {
	edges       []Edge
	outStrength []float64
	inStrength  []float64
	total       float64
}

func refBuild(directed bool, n int, raw []Edge) *refGraph {
	weights := make(map[[2]int32]float64)
	var order [][2]int32
	for _, e := range raw {
		key := [2]int32{e.Src, e.Dst}
		if !directed && e.Src > e.Dst {
			key = [2]int32{e.Dst, e.Src}
		}
		if _, seen := weights[key]; !seen {
			order = append(order, key)
		}
		weights[key] += e.Weight
	}
	r := &refGraph{
		outStrength: make([]float64, n),
		inStrength:  make([]float64, n),
	}
	for _, key := range order {
		r.edges = append(r.edges, Edge{Src: key[0], Dst: key[1], Weight: weights[key]})
	}
	sort.Slice(r.edges, func(i, j int) bool {
		if r.edges[i].Src != r.edges[j].Src {
			return r.edges[i].Src < r.edges[j].Src
		}
		return r.edges[i].Dst < r.edges[j].Dst
	})
	for _, e := range r.edges {
		r.outStrength[e.Src] += e.Weight
		if directed {
			r.inStrength[e.Dst] += e.Weight
			r.total += e.Weight
		} else {
			r.outStrength[e.Dst] += e.Weight
			r.total += 2 * e.Weight
		}
	}
	if !directed {
		copy(r.inStrength, r.outStrength)
	}
	return r
}

// randomRaw draws a duplicate-heavy edge multiset with irrational-ish
// weights, so any change in float summation order shows up as a bit
// difference.
func randomRaw(rng *rand.Rand, n int) []Edge {
	m := rng.Intn(4 * n)
	raw := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		raw = append(raw, Edge{Src: int32(u), Dst: int32(v), Weight: rng.ExpFloat64()})
	}
	return raw
}

func checkAgainstRef(t *testing.T, directed bool, n int, raw []Edge) {
	t.Helper()
	g := FromEdges(directed, n, raw)
	ref := refBuild(directed, n, raw)

	if g.NumNodes() != n {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), n)
	}
	if g.NumEdges() != len(ref.edges) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(ref.edges))
	}
	for id, e := range g.Edges() {
		if e != ref.edges[id] {
			t.Fatalf("edge %d = %+v, want %+v (must be bit-identical)", id, e, ref.edges[id])
		}
	}
	if g.TotalWeight() != ref.total {
		t.Fatalf("total = %v, want %v", g.TotalWeight(), ref.total)
	}
	isolates := 0
	for u := 0; u < n; u++ {
		if g.OutStrength(u) != ref.outStrength[u] {
			t.Fatalf("outStrength[%d] = %v, want %v", u, g.OutStrength(u), ref.outStrength[u])
		}
		if g.InStrength(u) != ref.inStrength[u] {
			t.Fatalf("inStrength[%d] = %v, want %v", u, g.InStrength(u), ref.inStrength[u])
		}
		if g.OutDegree(u) == 0 && g.InDegree(u) == 0 {
			isolates++
		}
	}
	if g.NumIsolates() != isolates {
		t.Fatalf("NumIsolates = %d, want %d (precomputed count drifted)", g.NumIsolates(), isolates)
	}
	if g.NumConnected() != n-isolates {
		t.Fatalf("NumConnected = %d, want %d", g.NumConnected(), n-isolates)
	}

	// CSR adjacency invariants: arc ranges sorted by To, EdgeID/Weight
	// consistent with the canonical edge, and degree sums correct.
	checkAdjacency(t, g)

	// Weight() must agree with a linear scan for every pair: every node
	// pair while n is small, else every pair of nodes raw touches.
	nodes := make([]int, 0, n)
	if n <= 512 {
		for u := 0; u < n; u++ {
			nodes = append(nodes, u)
		}
	} else {
		seen := make(map[int32]bool)
		for _, e := range raw {
			for _, u := range []int32{e.Src, e.Dst} {
				if !seen[u] {
					seen[u] = true
					nodes = append(nodes, int(u))
				}
			}
		}
	}
	for _, u := range nodes {
		want := make(map[int]float64)
		for _, a := range g.Out(u) {
			want[int(a.To)] = a.Weight
		}
		for _, v := range nodes {
			w, ok := g.Weight(u, v)
			ww, wok := want[v]
			if ok != wok || w != ww {
				t.Fatalf("Weight(%d,%d) = (%v,%v), want (%v,%v)", u, v, w, ok, ww, wok)
			}
		}
	}
}

func checkAdjacency(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumNodes()
	outArcs, inArcs := 0, 0
	for u := 0; u < n; u++ {
		for i, a := range g.Out(u) {
			if i > 0 && g.Out(u)[i-1].To >= a.To {
				t.Fatalf("Out(%d) not strictly sorted by To at %d", u, i)
			}
			e := g.Edge(int(a.EdgeID))
			if a.Weight != e.Weight {
				t.Fatalf("Out(%d) arc %d weight %v != edge %v", u, i, a.Weight, e.Weight)
			}
			if g.Directed() {
				if int(e.Src) != u || e.Dst != a.To {
					t.Fatalf("Out(%d) arc %d points to edge %+v", u, i, e)
				}
			} else if !(int(e.Src) == u && e.Dst == a.To) && !(int(e.Dst) == u && e.Src == a.To) {
				t.Fatalf("Out(%d) arc %d inconsistent with edge %+v", u, i, e)
			}
		}
		outArcs += g.OutDegree(u)
		if g.Directed() {
			for i, a := range g.In(u) {
				if i > 0 && g.In(u)[i-1].To >= a.To {
					t.Fatalf("In(%d) not strictly sorted by To at %d", u, i)
				}
				e := g.Edge(int(a.EdgeID))
				if int(e.Dst) != u || e.Src != a.To || e.Weight != a.Weight {
					t.Fatalf("In(%d) arc %d inconsistent with edge %+v", u, i, e)
				}
			}
			inArcs += g.InDegree(u)
		}
	}
	if g.Directed() {
		if outArcs != g.NumEdges() || inArcs != g.NumEdges() {
			t.Fatalf("arc counts out=%d in=%d, want %d", outArcs, inArcs, g.NumEdges())
		}
	} else if outArcs != 2*g.NumEdges() {
		t.Fatalf("arc count %d, want %d", outArcs, 2*g.NumEdges())
	}
}

// TestBuilderMatchesMapReference is the tentpole property test: across
// many random duplicate-heavy inputs, the sort-merge Builder must
// produce graphs bit-identical to the seed's map-based implementation —
// edges, strengths, totals, labels and isolate counts. The large
// trials take the radix sort through wide digits: two passes over 300
// nodes, and three over node IDs spread across 2^17.
func TestBuilderMatchesMapReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(40)
		directed := trial%2 == 0
		raw := randomRaw(rng, n)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkAgainstRef(t, directed, n, raw)
		})
	}
	for trial, n := range []int{300, 300, 1 << 17, 1 << 17} {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		directed := trial%2 == 0
		ids := rng.Perm(n)[:300]
		raw := make([]Edge, 0, 40_000)
		for len(raw) < cap(raw) {
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u != v {
				raw = append(raw, Edge{Src: int32(u), Dst: int32(v), Weight: rng.ExpFloat64()})
			}
		}
		t.Run(fmt.Sprintf("large%d", trial), func(t *testing.T) {
			checkAgainstRef(t, directed, n, raw)
		})
	}
}

// TestSubgraphMatchesRebuild: pruning through the zero-rebuild CSR
// Selection.Graph must equal rebuilding the kept edges from scratch, for
// random keep masks — edges, strengths, totals, labels.
func TestSubgraphMatchesRebuild(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 2 + rng.Intn(30)
		directed := trial%2 == 1
		g := FromEdges(directed, n, randomRaw(rng, n))
		var keep []int32
		var keptRaw []Edge
		for id, e := range g.Edges() {
			if rng.Float64() < 0.5 {
				keep = append(keep, int32(id))
				keptRaw = append(keptRaw, e)
			}
		}
		sub := Selection{G: g, IDs: keep}.Graph()
		want := FromEdges(directed, n, keptRaw)
		if sub.NumNodes() != n || sub.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: subgraph %v, want %v", trial, sub, want)
		}
		for id, e := range sub.Edges() {
			if e != want.Edges()[id] {
				t.Fatalf("trial %d: edge %d = %+v, want %+v", trial, id, e, want.Edges()[id])
			}
		}
		if sub.TotalWeight() != want.TotalWeight() {
			t.Fatalf("trial %d: total %v, want %v", trial, sub.TotalWeight(), want.TotalWeight())
		}
		for u := 0; u < n; u++ {
			if sub.OutStrength(u) != want.OutStrength(u) || sub.InStrength(u) != want.InStrength(u) {
				t.Fatalf("trial %d: strengths differ at node %d", trial, u)
			}
		}
		if sub.NumIsolates() != want.NumIsolates() {
			t.Fatalf("trial %d: isolates %d, want %d", trial, sub.NumIsolates(), want.NumIsolates())
		}
		checkAdjacency(t, sub)
	}
}

// TestSubgraphSharesLabels: labels and the label index survive the
// zero-rebuild path.
func TestSubgraphSharesLabels(t *testing.T) {
	b := NewBuilder(false)
	b.AddEdgeLabels("a", "b", 1)
	b.AddEdgeLabels("b", "c", 2)
	g := b.Build()
	sub := Selection{G: g, IDs: []int32{1}}.Graph()
	if sub.Label(0) != "a" || sub.Label(2) != "c" {
		t.Errorf("labels lost: %v", sub.Labels())
	}
	if sub.NodeID("b") != 1 {
		t.Errorf("NodeID(b) = %d", sub.NodeID("b"))
	}
	if sub.NumEdges() != 1 || sub.Edges()[0].Weight != 2 {
		t.Errorf("wrong edge kept: %+v", sub.Edges())
	}
}

// TestBuilderLabelsPreserved: the labeled path through AddEdgeLabels
// produces the same graph as the ID path.
func TestBuilderLabelsPreserved(t *testing.T) {
	b := NewBuilder(true)
	b.AddEdgeLabels("x", "y", 1.5)
	b.AddEdgeLabels("y", "z", 2.5)
	b.AddEdgeLabels("x", "y", 0.5) // duplicate: sums
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if w, ok := g.Weight(g.NodeID("x"), g.NodeID("y")); !ok || w != 2.0 {
		t.Errorf("Weight(x,y) = %v, %v", w, ok)
	}
	if g.NodeID("z") != 2 {
		t.Errorf("NodeID(z) = %d", g.NodeID("z"))
	}
}

// FuzzBuilderMerge drives the builder/reference comparison from fuzzed
// bytes: each 5-byte group encodes (src, dst, weight).
func FuzzBuilderMerge(f *testing.F) {
	f.Add([]byte{0, 1, 10, 1, 2}, uint8(7), true)
	f.Add([]byte{3, 1, 1, 1, 3, 3, 1, 2, 2, 9}, uint8(9), false)
	f.Add([]byte{}, uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8, directed bool) {
		n := 1 + int(nRaw)%32
		var raw []Edge
		for i := 0; i+4 < len(data); i += 5 {
			u := int(data[i]) % n
			v := int(data[i+1]) % n
			if u == v {
				continue
			}
			w := float64(data[i+2])/16 + float64(data[i+3])/256 + float64(data[i+4])/4096
			if w == 0 {
				continue
			}
			raw = append(raw, Edge{Src: int32(u), Dst: int32(v), Weight: w})
		}
		checkAgainstRef(t, directed, n, raw)
	})
}
