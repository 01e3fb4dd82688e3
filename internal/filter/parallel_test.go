package filter

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestParallelEdgesCoverage: every index in [0, m) is visited exactly
// once, for worker counts below, at and above m. Run under -race (the
// CI default) this also exercises the fan-out for data races.
func TestParallelEdgesCoverage(t *testing.T) {
	for _, m := range []int{0, 1, 2, 7, 100, 4097} {
		for _, workers := range []int{0, 1, 2, 3, 16, 1000} {
			hits := make([]int32, m)
			ParallelEdges(m, workers, func(lo, hi int) {
				if lo < 0 || hi > m || lo >= hi {
					t.Errorf("m=%d workers=%d: bad range [%d,%d)", m, workers, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("m=%d workers=%d: index %d visited %d times", m, workers, i, h)
				}
			}
		}
	}
}

// fakeRangeScorer writes a deterministic function of the edge ID so
// chunked and serial execution are trivially comparable.
type fakeRangeScorer struct{}

func (fakeRangeScorer) Name() string { return "fake" }

func (fakeRangeScorer) NewTable(g *graph.Graph) (*Scores, error) {
	m := g.NumEdges()
	return &Scores{
		G:      g,
		Score:  make([]float64, m),
		Method: "fake",
		Aux:    map[string][]float64{"aux": make([]float64, m)},
	}, nil
}

func (f fakeRangeScorer) Scores(g *graph.Graph) (*Scores, error) { return Serial(f, g) }

func (fakeRangeScorer) ScoreEdges(s *Scores, lo, hi int) {
	edges := s.G.Edges()
	aux := s.Aux["aux"]
	for id := lo; id < hi; id++ {
		s.Score[id] = float64(id) * edges[id].Weight
		aux[id] = -s.Score[id]
	}
}

// TestRangeScoringMatchesSerial: the fake kernel split across explicit
// worker counts, and run through Method.ScoreCtx (which splits this
// table, above the 4096-edge cutoff, across GOMAXPROCS workers),
// reproduces the serial table under the scorer's own name.
func TestRangeScoringMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(false)
	b.AddNodes(200)
	for i := 0; i < 5000; i++ {
		u, v := rng.Intn(200), rng.Intn(200)
		if u != v {
			b.MustAddEdge(u, v, rng.Float64())
		}
	}
	g := b.Build()
	if g.NumEdges() < parallelMinEdges {
		t.Fatalf("%d edges: below the parallel cutoff", g.NumEdges())
	}
	serial, err := Serial(fakeRangeScorer{}, g)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, got *Scores) {
		t.Helper()
		if got.Method != "fake" {
			t.Errorf("%s: method = %q", label, got.Method)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := range serial.Score {
			if got.Score[i] != serial.Score[i] || got.Aux["aux"][i] != serial.Aux["aux"][i] {
				t.Fatalf("%s: row %d differs", label, i)
			}
		}
	}
	for _, workers := range []int{0, 1, 3, 8} {
		got, err := fakeRangeScorer{}.NewTable(g)
		if err != nil {
			t.Fatal(err)
		}
		ParallelEdges(len(got.Score), workers, func(lo, hi int) { fakeRangeScorer{}.ScoreEdges(got, lo, hi) })
		check(fmt.Sprintf("workers=%d", workers), got)
	}
	m := &Method{Name: "fake", Scorer: fakeRangeScorer{}}
	got, err := m.Score(g)
	if err != nil {
		t.Fatal(err)
	}
	check("ScoreCtx", got)
}

// goroutineScorer is fakeRangeScorer recording whether any range ran
// off the goroutine with ID caller.
type goroutineScorer struct {
	fakeRangeScorer
	caller uint64
	off    *atomic.Bool
}

func (s goroutineScorer) ScoreEdges(t *Scores, lo, hi int) {
	if goid() != s.caller {
		s.off.Store(true)
	}
	s.fakeRangeScorer.ScoreEdges(t, lo, hi)
}

// goid parses the calling goroutine's ID from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	f := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestScoreCtxWorkersFollowTableSize: Method.ScoreCtx scores a table
// below the cutoff on the calling goroutine alone, and one at the
// cutoff on worker goroutines whenever GOMAXPROCS allows more than one.
func TestScoreCtxWorkersFollowTableSize(t *testing.T) {
	for _, m := range []int{parallelMinEdges - 1, parallelMinEdges} {
		b := graph.NewBuilder(false)
		b.AddNodes(m + 1)
		for i := 0; i < m; i++ {
			b.MustAddEdge(i, i+1, 1)
		}
		var off atomic.Bool
		meth := &Method{Name: "fake", Scorer: goroutineScorer{caller: goid(), off: &off}}
		if _, err := meth.Score(b.Build()); err != nil {
			t.Fatal(err)
		}
		want := m >= parallelMinEdges && runtime.GOMAXPROCS(0) > 1
		if off.Load() != want {
			t.Errorf("%d edges, GOMAXPROCS %d: ranges ran off the caller = %v, want %v",
				m, runtime.GOMAXPROCS(0), off.Load(), want)
		}
	}
}

// TestTopKMatchesFullSort pins the quickselect pruning path to a full
// stable sort of the ranking order, including ThresholdForK, across
// random score tables heavy with ties.
func TestTopKMatchesFullSort(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(trial%2 == 0)
		b.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				// Coarse weights force ties on both score and weight.
				b.MustAddEdge(u, v, float64(1+rng.Intn(3)))
			}
		}
		g := b.Build()
		m := g.NumEdges()
		s := &Scores{G: g, Score: make([]float64, m), Method: "test"}
		for i := range s.Score {
			s.Score[i] = float64(rng.Intn(4)) // heavy score ties
		}

		// Reference ranking: the seed's full stable sort.
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		edges := g.Edges()
		sortStableByRank(ids, s.Score, edges)

		for _, k := range []int{0, 1, m / 3, m - 1, m, m + 5} {
			bb := s.TopK(k)
			want := k
			if want < 0 {
				want = 0
			}
			if want > m {
				want = m
			}
			if bb.NumEdges() != want {
				t.Fatalf("trial %d: TopK(%d) kept %d edges", trial, k, bb.NumEdges())
			}
			wantKeep := make(map[graph.EdgeKey]bool, want)
			for _, id := range ids[:want] {
				wantKeep[g.Key(edges[id])] = true
			}
			for _, e := range bb.Edges() {
				if !wantKeep[g.Key(e)] {
					t.Fatalf("trial %d: TopK(%d) kept unranked edge %+v", trial, k, e)
				}
			}
			if k >= 1 && k <= m {
				if got, want := s.ThresholdForK(k), s.Score[ids[k-1]]; got != want {
					t.Fatalf("trial %d: ThresholdForK(%d) = %v, want %v", trial, k, got, want)
				}
			}
		}
	}
}

// sortStableByRank is the seed implementation of the ranking order:
// score desc, weight desc, id asc.
func sortStableByRank(ids []int, score []float64, edges []graph.Edge) {
	for i := 1; i < len(ids); i++ { // insertion sort: simple, stable
		for j := i; j > 0; j-- {
			a, b := ids[j], ids[j-1]
			better := false
			if score[a] != score[b] {
				better = score[a] > score[b]
			} else if edges[a].Weight != edges[b].Weight {
				better = edges[a].Weight > edges[b].Weight
			} else {
				better = a < b
			}
			if !better {
				break
			}
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
