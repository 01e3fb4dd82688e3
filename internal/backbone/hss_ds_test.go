package backbone

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/graph"
)

// Two dense clusters joined by a single bridge: every inter-cluster
// shortest path crosses the bridge, so its salience must be 1, while
// redundant intra-cluster edges score low.
func TestHSSBridgeSalience(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddNodes(8)
	clusterEdges := func(nodes []int) {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				b.MustAddEdge(nodes[i], nodes[j], 1)
			}
		}
	}
	clusterEdges([]int{0, 1, 2, 3})
	clusterEdges([]int{4, 5, 6, 7})
	b.MustAddEdge(3, 4, 1) // the bridge
	g := b.Build()
	s, err := NewHSS().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	var bridge int = -1
	for i, e := range g.Edges() {
		if (e.Src == 3 && e.Dst == 4) || (e.Src == 4 && e.Dst == 3) {
			bridge = i
		}
	}
	if got := s.Score[bridge]; got != 1 {
		t.Errorf("bridge salience = %v, want 1", got)
	}
	for i := range s.Score {
		if s.Score[i] < 0 || s.Score[i] > 1 {
			t.Errorf("salience out of [0,1]: %v", s.Score[i])
		}
	}
	bb := cut(t, "hss", g, filter.Params{"salience": 0.5})
	if _, ok := bb.Weight(3, 4); !ok {
		t.Error("bridge dropped by HSS backbone")
	}
}

func TestHSSPathGraphAllSalient(t *testing.T) {
	// On a path, every edge lies on every SPT that reaches past it;
	// edge (i, i+1) belongs to all n SPTs.
	g := line(t, 1, 2, 3, 4)
	s, err := NewHSS().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Score {
		if v != 1 {
			t.Errorf("path edge %d salience = %v, want 1", i, v)
		}
	}
}

func TestHSSStrongDetour(t *testing.T) {
	// Triangle where going around 0-1-2 (weights 10,10 => distance 0.2)
	// beats the direct 0-2 edge (weight 1 => distance 1). The weak
	// direct edge should appear in no SPT.
	b := graph.NewBuilder(false)
	b.AddNodes(3)
	b.MustAddEdge(0, 1, 10)
	b.MustAddEdge(1, 2, 10)
	b.MustAddEdge(0, 2, 1)
	g := b.Build()
	s, err := NewHSS().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Edges() {
		if e.Weight == 1 {
			if s.Score[i] != 0 {
				t.Errorf("bypassed edge salience = %v, want 0", s.Score[i])
			}
		} else if s.Score[i] != 1 {
			t.Errorf("backbone edge salience = %v, want 1", s.Score[i])
		}
	}
}

func TestDoublyStochasticConvergesOnSymmetric(t *testing.T) {
	// K4 with distinct weights: a complete graph has total support, so
	// the Sinkhorn scaling exists and the iteration converges.
	b := graph.NewBuilder(false)
	b.AddNodes(4)
	b.MustAddEdge(0, 1, 5)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(2, 3, 7)
	b.MustAddEdge(3, 0, 2)
	b.MustAddEdge(0, 2, 3)
	b.MustAddEdge(1, 3, 4)
	g := b.Build()
	ds := NewDoublyStochastic()
	r, c, err := ds.sinkhorn(g)
	if err != nil {
		t.Fatal(err)
	}
	// Verify double stochasticity directly.
	n := g.NumNodes()
	rowSum := make([]float64, n)
	colSum := make([]float64, n)
	for _, e := range g.Edges() {
		rowSum[e.Src] += r[e.Src] * e.Weight * c[e.Dst]
		colSum[e.Dst] += r[e.Src] * e.Weight * c[e.Dst]
		rowSum[e.Dst] += r[e.Dst] * e.Weight * c[e.Src]
		colSum[e.Src] += r[e.Dst] * e.Weight * c[e.Src]
	}
	for i := 0; i < n; i++ {
		if math.Abs(rowSum[i]-1) > 1e-6 || math.Abs(colSum[i]-1) > 1e-6 {
			t.Errorf("node %d: row %v col %v, want 1", i, rowSum[i], colSum[i])
		}
	}
}

func TestDoublyStochasticInfeasible(t *testing.T) {
	// A pure source (out but no in) makes the transformation impossible.
	b := graph.NewBuilder(true)
	b.AddNodes(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(2, 1, 1)
	g := b.Build() // node 0 has out-strength 1, in-strength 0
	if _, err := NewDoublyStochastic().Scores(g); err == nil {
		t.Error("pure-source graph accepted — paper's n/a case must error")
	}
}

func TestDoublyStochasticExtractConnects(t *testing.T) {
	// Two triangles plus one weak bridge: DS must keep adding edges
	// until the bridge joins the components.
	b := graph.NewBuilder(false)
	b.AddNodes(6)
	tri := func(a0, a1, a2 int, w float64) {
		b.MustAddEdge(a0, a1, w)
		b.MustAddEdge(a1, a2, w)
		b.MustAddEdge(a0, a2, w)
	}
	tri(0, 1, 2, 10)
	tri(3, 4, 5, 10)
	b.MustAddEdge(2, 3, 0.5)
	g := b.Build()
	bb, err := NewDoublyStochastic().Extract(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.IsWeaklyConnected() {
		t.Error("DS backbone not connected")
	}
	if _, ok := bb.Weight(2, 3); !ok {
		t.Error("bridge missing from DS backbone")
	}
}

func TestDoublyStochasticExtractDisconnectedInput(t *testing.T) {
	// Disconnected input: extraction cannot reach one component; it must
	// terminate with everything rather than loop forever.
	b := graph.NewBuilder(false)
	b.AddNodes(4)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(2, 3, 1)
	g := b.Build()
	bb, err := NewDoublyStochastic().Extract(g)
	if err != nil {
		t.Fatal(err)
	}
	if bb.NumEdges() != 2 {
		t.Errorf("kept %d edges, want all 2", bb.NumEdges())
	}
}

// Property: on undirected graphs with all nodes covered, Sinkhorn
// scaling produces row sums within tolerance of 1.
func TestQuickSinkhornRowSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		b := graph.NewBuilder(false)
		b.AddNodes(n)
		// Ring ensures every node has edges; extra random chords.
		for i := 0; i < n; i++ {
			b.MustAddEdge(i, (i+1)%n, 1+rng.Float64()*10)
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.MustAddEdge(u, v, 1+rng.Float64()*10)
			}
		}
		g := b.Build()
		ds := NewDoublyStochastic()
		r, c, err := ds.sinkhorn(g)
		if err != nil {
			return true // non-convergence is a legal, reported outcome
		}
		rowSum := make([]float64, n)
		for _, e := range g.Edges() {
			rowSum[e.Src] += r[e.Src] * e.Weight * c[e.Dst]
			rowSum[e.Dst] += r[e.Dst] * e.Weight * c[e.Src]
		}
		for i := range rowSum {
			if math.Abs(rowSum[i]-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMethodNames(t *testing.T) {
	names := map[string]string{
		NewNaive().Name():            "naive",
		NewMST().Name():              "mst",
		NewDisparity().Name():        "df",
		NewHSS().Name():              "hss",
		NewDoublyStochastic().Name(): "ds",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
}
