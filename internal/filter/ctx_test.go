package filter

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestParallelEdgesCtxCancelStopsWork: cancelling mid-run stops the
// workers at their next checkpoint — the uncovered ranges are never
// visited and the call reports context.Canceled.
func TestParallelEdgesCtxCancelStopsWork(t *testing.T) {
	const m = 1 << 20
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var visited atomic.Int64
		var once sync.Once
		err := ParallelEdgesCtx(ctx, m, workers, nil, func(lo, hi int) {
			visited.Add(int64(hi - lo))
			once.Do(cancel) // cancel from inside the first scored range
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Each worker may finish the sub-range it was inside, but no
		// worker starts a new one: at most workers × Checkpoint edges.
		if got := visited.Load(); got > int64(workers*Checkpoint) {
			t.Errorf("workers=%d: %d edges scored after cancellation, want <= %d", workers, got, workers*Checkpoint)
		}
		cancel()
	}
}

// TestParallelEdgesCtxCoverage: without cancellation the checkpointed
// runner still covers [0, m) exactly once and its progress reaches the
// total. Callbacks run concurrently, so the last one to store need not
// carry the largest count: the test keeps the maximum.
func TestParallelEdgesCtxCoverage(t *testing.T) {
	for _, m := range []int{1, 7, Checkpoint, Checkpoint + 1, 3*Checkpoint + 17} {
		for _, workers := range []int{1, 2, 7} {
			seen := make([]int32, m)
			var maxDone atomic.Int64
			err := ParallelEdgesCtx(context.Background(), m, workers,
				func(done, total int) {
					if total != m {
						t.Fatalf("progress total = %d, want %d", total, m)
					}
					for {
						cur := maxDone.Load()
						if int64(done) <= cur || maxDone.CompareAndSwap(cur, int64(done)) {
							break
						}
					}
				},
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
			if err != nil {
				t.Fatalf("m=%d workers=%d: %v", m, workers, err)
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("m=%d workers=%d: index %d visited %d times", m, workers, i, n)
				}
			}
			if got := maxDone.Load(); got != int64(m) {
				t.Errorf("m=%d workers=%d: final progress %d, want %d", m, workers, got, m)
			}
		}
	}
}

// TestScoreCtxPreCancelled: an already-cancelled context fails fast,
// before any scoring.
func TestScoreCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := &Method{Name: "x", Scorer: stubScorer{}, Cut: func(Params) float64 { return 0 }}
	if _, err := m.ScoreCtx(ctx, nil, ScoreOpts{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ScoreCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}

type stubScorer struct{}

func (stubScorer) Name() string { return "stub" }
func (stubScorer) Scores(g *graph.Graph) (*Scores, error) {
	return &Scores{G: g, Method: "stub"}, nil
}

// TestTypedErrors pins each sentinel to its producing call.
func TestTypedErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Lookup("nope"); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("Lookup: %v, want ErrUnknownMethod", err)
	}
	m := &Method{Name: "x", Title: "X", Extractor: stubExtractor{}}
	if _, err := m.Resolve(Params{"delta": 1}); !errors.Is(err, ErrUnknownParam) {
		t.Errorf("Resolve: %v, want ErrUnknownParam", err)
	}
	var pe *ParamError
	if _, err := m.Resolve(Params{"delta": 1}); !errors.As(err, &pe) || pe.Param != "delta" || pe.Method != "x" {
		t.Errorf("Resolve: %v, want *ParamError{Method: x, Param: delta}", err)
	}
	if _, err := m.Score(nil); !errors.Is(err, ErrNoScorer) {
		t.Errorf("Score: %v, want ErrNoScorer", err)
	}
}

type stubExtractor struct{}

func (stubExtractor) Name() string { return "stub" }
func (stubExtractor) Extract(g *graph.Graph) (*graph.Graph, error) {
	return g, nil
}
