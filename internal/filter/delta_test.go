package filter

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

// cancellingScorer is fakeRangeScorer that cancels a context from
// inside its first scored range.
type cancellingScorer struct {
	fakeRangeScorer
	cancel context.CancelFunc
}

func (s cancellingScorer) ScoreEdges(t *Scores, lo, hi int) {
	s.cancel()
	s.fakeRangeScorer.ScoreEdges(t, lo, hi)
}

// TestRescoreDirtyExclusiveCancel: an exclusive rescore whose context
// is cancelled inside the rescore loop stops at the next checkpoint run
// and reports context.Canceled, on both sides of the delta's
// incremental/full-merge cutover.
func TestRescoreDirtyExclusiveCancel(t *testing.T) {
	defer func(c int) { Checkpoint = c }(Checkpoint)
	Checkpoint = 2 // several checkpoint runs even on a small frontier

	edges := make([]graph.Edge, 0, 60)
	for u := int32(0); u < 30; u++ {
		edges = append(edges, graph.Edge{Src: u, Dst: u + 1, Weight: 1}, graph.Edge{Src: u, Dst: u + 2, Weight: 2})
	}
	for _, size := range []int{2, 30} { // 30 updates on 60 edges take the full merge
		base := graph.FromEdges(false, 32, edges)
		d := graph.NewDelta(base, 0)
		d.SetExclusive(true)
		ctx, cancel := context.WithCancel(context.Background())
		m := &Method{
			Name:   "cancel",
			Scorer: cancellingScorer{cancel: cancel},
			Delta:  &DeltaScorer{Dirtiness: DirtyEndpoints},
		}
		old, err := Serial(fakeRangeScorer{}, base)
		if err != nil {
			t.Fatal(err)
		}
		ups := make([]graph.Update, size)
		for i := range ups {
			ups[i] = graph.Update{Src: int32(i), Dst: int32(i) + 1, Weight: 5}
		}
		if err := d.Apply(ups); err != nil {
			t.Fatal(err)
		}
		_, dirty := d.Graph()
		if _, _, err := RescoreDirty(ctx, m, old, dirty, ScoreOpts{}); !errors.Is(err, context.Canceled) {
			t.Errorf("size=%d: RescoreDirty = %v, want context.Canceled", size, err)
		}
		cancel()
	}
}
