package binfmt_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/graph"
)

// labelAlphabet exercises the arena with everything the text formats
// struggle with: unicode, commas, quotes, spaces inside labels.
var labelAlphabet = []string{
	"n%d", "node %d", "héllo-%d", "名前%d", "a,b:%d", "\"q\"%d", "🌐%d", "x\t%d",
}

// randomGraph builds a pseudo-random graph: mixed directedness comes
// from the caller, isolates from registering more nodes than the edges
// touch, weights include repeated and extreme values, and duplicate
// AddEdge calls exercise the builder's merge path.
func randomGraph(t testing.TB, seed int64, n, m int, directed bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	for i := 0; i < n; i++ {
		style := labelAlphabet[rng.Intn(len(labelAlphabet))]
		b.AddNode(fmt.Sprintf(style, i))
	}
	weights := []float64{0.5, 1, 1, 2, 3, 1e-12, 1e12, math.Pi}
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		w := weights[rng.Intn(len(weights))]
		if rng.Intn(20) == 0 {
			w = 0 // dropped by AddEdge; must not disturb anything
		}
		b.MustAddEdge(u, v, w)
	}
	return b.Build()
}

// unlabeledGraph builds a graph whose nodes never got labels.
func unlabeledGraph(t testing.TB, seed int64, n, m int, directed bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v, Weight: float64(1 + rng.Intn(9))})
	}
	return graph.FromEdges(directed, n, edges)
}

// mustIdentical asserts a and b are bit-identical graphs: same
// directedness, node/edge/isolate counts, exact edge and strength
// bits, equal CSR arrays, equal labels, and working label lookups.
func mustIdentical(t *testing.T, what string, a, b *graph.Graph) {
	t.Helper()
	if a.Directed() != b.Directed() {
		t.Fatalf("%s: directedness %v != %v", what, a.Directed(), b.Directed())
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.NumIsolates() != b.NumIsolates() {
		t.Fatalf("%s: shape (%d,%d,%d) != (%d,%d,%d)", what,
			a.NumNodes(), a.NumEdges(), a.NumIsolates(), b.NumNodes(), b.NumEdges(), b.NumIsolates())
	}
	if math.Float64bits(a.TotalWeight()) != math.Float64bits(b.TotalWeight()) {
		t.Fatalf("%s: total %v != %v", what, a.TotalWeight(), b.TotalWeight())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i].Src != be[i].Src || ae[i].Dst != be[i].Dst ||
			math.Float64bits(ae[i].Weight) != math.Float64bits(be[i].Weight) {
			t.Fatalf("%s: edge %d: %+v != %+v", what, i, ae[i], be[i])
		}
	}
	av, bv := a.CSRView(), b.CSRView()
	if len(av.Arcs) != len(bv.Arcs) || len(av.OutOff) != len(bv.OutOff) ||
		len(av.InArcs) != len(bv.InArcs) || len(av.InOff) != len(bv.InOff) {
		t.Fatalf("%s: CSR shapes differ", what)
	}
	for i := range av.Arcs {
		if av.Arcs[i] != bv.Arcs[i] {
			t.Fatalf("%s: arc %d: %+v != %+v", what, i, av.Arcs[i], bv.Arcs[i])
		}
	}
	for i := range av.OutOff {
		if av.OutOff[i] != bv.OutOff[i] {
			t.Fatalf("%s: outOff %d: %d != %d", what, i, av.OutOff[i], bv.OutOff[i])
		}
	}
	for u := 0; u < a.NumNodes(); u++ {
		if math.Float64bits(a.OutStrength(u)) != math.Float64bits(b.OutStrength(u)) ||
			math.Float64bits(a.InStrength(u)) != math.Float64bits(b.InStrength(u)) {
			t.Fatalf("%s: strengths of node %d differ", what, u)
		}
		la, lb := a.Label(u), b.Label(u)
		if la != lb {
			t.Fatalf("%s: label of node %d: %q != %q", what, u, la, lb)
		}
		if la != "" && b.NodeID(la) != u && a.NodeID(la) == u {
			t.Fatalf("%s: NodeID(%q) = %d, want %d", what, la, b.NodeID(la), u)
		}
	}
}

func writeBBG(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binfmt.Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func openTemp(t testing.TB, data []byte) *binfmt.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bbg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := binfmt.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestRoundTripProperty is the PR's core property: for random graphs
// of every shape, the .bbg round trip through BOTH readers must
// reproduce the original graph bit-for-bit — including what the text
// formats cannot carry (isolated nodes, exact strength bits).
func TestRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		directed := seed%2 == 1
		n := 2 + int(seed*7)%40
		m := int(seed * 13 % 200)
		var g *graph.Graph
		if seed%3 == 2 {
			g = unlabeledGraph(t, seed, n, m, directed)
		} else {
			g = randomGraph(t, seed, n, m, directed)
		}
		data := writeBBG(t, g)

		got, err := binfmt.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: Read: %v", seed, err)
		}
		mustIdentical(t, fmt.Sprintf("seed %d copy", seed), g, got)

		f := openTemp(t, data)
		mustIdentical(t, fmt.Sprintf("seed %d mmap", seed), g, f.Graph())
		if !f.Mapped() {
			t.Logf("seed %d: mmap unavailable, copying fallback exercised", seed)
		}

		// The stream reader must also work without a Len() hint.
		got2, err := binfmt.Read(onlyReader{bytes.NewReader(data)})
		if err != nil {
			t.Fatalf("seed %d: Read (unsized): %v", seed, err)
		}
		mustIdentical(t, fmt.Sprintf("seed %d unsized", seed), g, got2)
	}
}

// onlyReader hides every optional interface of the wrapped reader.
type onlyReader struct{ r *bytes.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// TestAgainstTextRoundTrip pins bbg against the text formats: loading
// the bbg bytes must agree bit-for-bit with re-reading the graph's own
// csv serialization (on everything csv can represent — the text round
// trip drops isolated nodes, so shapes are compared on edges).
func TestAgainstTextRoundTrip(t *testing.T) {
	for seed := int64(1); seed < 6; seed++ {
		g := randomGraph(t, seed, 30, 120, seed%2 == 0)
		var txt bytes.Buffer
		if err := graph.WriteGraph(&txt, g, graph.WriteOptions{Format: "ndjson"}); err != nil {
			t.Fatal(err)
		}
		fromText, err := graph.ReadGraph(bytes.NewReader(txt.Bytes()), graph.ReadOptions{Directed: g.Directed()})
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := binfmt.Read(bytes.NewReader(writeBBG(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		// The text round trip renumbers nodes by first appearance in
		// the serialized edge list, so compare label-keyed edge sets.
		tset, bset := labelEdgeSet(fromText), labelEdgeSet(fromBin)
		if len(tset) != len(bset) {
			t.Fatalf("seed %d: %d text edges != %d bbg edges", seed, len(tset), len(bset))
		}
		for i := range tset {
			if tset[i] != bset[i] {
				t.Fatalf("seed %d: edge %d differs:\n  text %q\n  bbg  %q", seed, i, tset[i], bset[i])
			}
		}
	}
}

// labelEdgeSet canonicalizes a graph to sorted label-keyed edge
// triples with exact weight bits, independent of node numbering.
func labelEdgeSet(g *graph.Graph) []string {
	out := make([]string, 0, g.NumEdges())
	for _, e := range g.Edges() {
		l1, l2 := g.Label(int(e.Src)), g.Label(int(e.Dst))
		if !g.Directed() && l1 > l2 {
			l1, l2 = l2, l1
		}
		out = append(out, fmt.Sprintf("%s\x00%s\x00%016x", l1, l2, math.Float64bits(e.Weight)))
	}
	sort.Strings(out)
	return out
}

// TestWriteDeterministic: digest-addressed stores (backboned
// -graphdir) need the same graph to serialize to the same bytes.
func TestWriteDeterministic(t *testing.T) {
	g := randomGraph(t, 42, 25, 80, true)
	if !bytes.Equal(writeBBG(t, g), writeBBG(t, g)) {
		t.Fatal("two writes of the same graph differ")
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	empty := graph.NewBuilder(false).Build()
	got, err := binfmt.Read(bytes.NewReader(writeBBG(t, empty)))
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty graph round-tripped to %v", got)
	}

	b := graph.NewBuilder(true)
	for i := 0; i < 5; i++ {
		b.AddNode(fmt.Sprintf("iso%d", i))
	}
	isolated := b.Build()
	f := openTemp(t, writeBBG(t, isolated))
	mustIdentical(t, "isolates-only", isolated, f.Graph())
	if f.Graph().NumIsolates() != 5 {
		t.Fatalf("isolates = %d, want 5", f.Graph().NumIsolates())
	}
}

// TestIsolatesSurviveBinary: the binary format's advantage over the
// text formats — node set (and thus coverage denominators) preserved.
func TestIsolatesSurviveBinary(t *testing.T) {
	b := graph.NewBuilder(false)
	for _, l := range []string{"a", "b", "lonely", "c", "alone"} {
		b.AddNode(l)
	}
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 3, 2)
	g := b.Build()
	got, err := binfmt.Read(bytes.NewReader(writeBBG(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumIsolates() != 2 {
		t.Fatalf("isolates = %d, want 2", got.NumIsolates())
	}
	if id := got.NodeID("lonely"); id != 2 {
		t.Fatalf("NodeID(lonely) = %d, want 2", id)
	}
}

// TestMmapLazyIndexAcrossSubgraph: label lookups must work on
// subgraphs extracted from an mmap-loaded graph (the lazy index is
// shared, not rebuilt or lost).
func TestMmapLazyIndexAcrossSubgraph(t *testing.T) {
	g := randomGraph(t, 7, 20, 60, false)
	f := openTemp(t, writeBBG(t, g))
	loaded := f.Graph()
	sub := loaded.FilterEdges(func(id int, _ graph.Edge) bool { return id%2 == 0 })
	for u := 0; u < g.NumNodes(); u++ {
		if l := g.Label(u); l != "" && g.NodeID(l) == u {
			if got := sub.NodeID(l); got != u {
				t.Fatalf("subgraph NodeID(%q) = %d, want %d", l, got, u)
			}
		}
	}
}
