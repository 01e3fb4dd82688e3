package repro

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
)

// TestRegisteredRangeScorersBitIdentical asserts the perf contract
// behind the single scoring path: for every method whose scorer is a
// filter.RangeScorer (nc, df, nt, nc-binomial), Method.ScoreCtx — which
// splits a table above the 4096-edge cutoff across GOMAXPROCS workers —
// and ParallelEdges at explicit worker counts (so a one-CPU runner
// still covers the multi-worker path) must reproduce the serial
// Scorer.Scores table, the one-worker reference, bit for bit: Score,
// every Aux column and the scorer's own name.
func TestRegisteredRangeScorersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyiGNM(rng, 4000, 12_000) // above the 4096-edge cutoff

	var have []string
	for _, m := range filter.All() {
		rs, ok := m.Scorer.(filter.RangeScorer)
		if !ok {
			continue
		}
		have = append(have, m.Name)
		serial, err := m.Scorer.Scores(g)
		if err != nil {
			t.Fatalf("%s: serial: %v", m.Name, err)
		}
		got, err := m.ScoreCtx(context.Background(), g, filter.ScoreOpts{})
		if err != nil {
			t.Fatalf("%s: ScoreCtx: %v", m.Name, err)
		}
		if got.Method != serial.Method {
			t.Errorf("%s: ScoreCtx method name = %q, want the scorer's %q", m.Name, got.Method, serial.Method)
		}
		requireTablesBitIdentical(t, m.Name+" ScoreCtx", 0, got, serial)
		for _, workers := range []int{2, 3, 7} {
			s, err := rs.NewTable(g)
			if err != nil {
				t.Fatal(err)
			}
			filter.ParallelEdges(len(s.Score), workers, func(lo, hi int) { rs.ScoreEdges(s, lo, hi) })
			requireTablesBitIdentical(t, fmt.Sprintf("%s workers=%d", m.Name, workers), 0, s, serial)
		}
	}
	if want := []string{"nc", "df", "nt", "nc-binomial"}; !slices.Equal(have, want) {
		t.Errorf("range-scored methods = %v, want %v", have, want)
	}
}
