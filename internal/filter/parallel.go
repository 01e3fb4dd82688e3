package filter

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Checkpoint is the number of edges a scoring worker processes between
// cancellation checks and progress reports. Cancelling a context stops
// in-flight scoring within one checkpoint range per worker. It is a
// variable (not a constant) so tests can shrink the interval; treat it
// as read-only outside tests.
var Checkpoint = 4096

// ParallelEdges partitions the edge-ID space [0, m) into contiguous
// chunks and runs fn on each chunk concurrently, returning once every
// chunk is done. workers <= 0 means GOMAXPROCS. fn is called with
// non-overlapping half-open ranges covering [0, m) exactly once; with
// one worker (or m <= 1) it runs inline on the caller's goroutine.
//
// This is the single chunked-worker loop every RangeScorer runs
// through — per-edge significance computations are independent given
// the graph, so splitting the table by ranges is race-free as long as
// fn only writes rows in [lo, hi).
func ParallelEdges(m, workers int, fn func(lo, hi int)) {
	ParallelEdgesCtx(context.Background(), m, workers, nil, fn)
}

// ParallelEdgesCtx is ParallelEdges under a context with optional
// progress reporting. Each worker walks its chunk in Checkpoint-sized
// sub-ranges, checking ctx between them; when the context is cancelled
// every worker stops at its next checkpoint, the call returns ctx.Err()
// and the uncovered ranges are never passed to fn. progress, when
// non-nil, is invoked after each completed sub-range with the
// cumulative count of processed edges — concurrently, when more than
// one worker runs. A nil return value guarantees fn covered [0, m)
// exactly once.
func ParallelEdgesCtx(ctx context.Context, m, workers int, progress func(done, total int), fn func(lo, hi int)) error {
	if m <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	step := Checkpoint
	if step <= 0 {
		step = 1
	}
	var done atomic.Int64
	report := func(n int) {
		if progress != nil {
			progress(int(done.Add(int64(n))), m)
		}
	}
	// run covers [lo, hi) in checkpoint steps; false means cancelled.
	run := func(lo, hi int) bool {
		for sub := lo; sub < hi; sub += step {
			if ctx.Err() != nil {
				return false
			}
			end := sub + step
			if end > hi {
				end = hi
			}
			fn(sub, end)
			report(end - sub)
		}
		return true
	}
	if workers == 1 {
		if !run(0, m) {
			return ctx.Err()
		}
		return ctx.Err()
	}
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// RangeScorer is the decomposed form of a Scorer whose per-edge work is
// independent given the graph: table allocation and row computation are
// separate, so the same kernel can run serially or chunked across CPUs
// with bit-identical results.
type RangeScorer interface {
	// Name returns the scorer's short identifier ("nc", "df", ...).
	Name() string
	// NewTable allocates the empty Scores table (Score and Aux columns
	// sized to g.NumEdges(), Method set) without computing any rows.
	NewTable(g *graph.Graph) (*Scores, error)
	// ScoreEdges computes rows [lo, hi) of a table produced by NewTable.
	// It must not touch rows outside the range.
	ScoreEdges(s *Scores, lo, hi int)
}

// parallelMinEdges is the table size from which Method.ScoreCtx splits
// a RangeScorer's rows across GOMAXPROCS workers; below it the
// goroutine fan-out costs more than it saves.
const parallelMinEdges = 4096

// Serial computes a RangeScorer's full table on the calling goroutine —
// the standard body of the sequential Scores method, and the
// one-worker reference the multi-worker path is pinned against.
func Serial(rs RangeScorer, g *graph.Graph) (*Scores, error) {
	return scoreRangesCtx(context.Background(), rs, g, 1, nil)
}

// scoreRangesCtx allocates rs's table for g and computes its rows on
// workers goroutines (<= 0 means GOMAXPROCS), checking ctx between
// checkpoint ranges and reporting to progress.
func scoreRangesCtx(ctx context.Context, rs RangeScorer, g *graph.Graph, workers int, progress func(done, total int)) (*Scores, error) {
	s, err := rs.NewTable(g)
	if err != nil {
		return nil, err
	}
	if err := ParallelEdgesCtx(ctx, len(s.Score), workers, progress, func(lo, hi int) {
		rs.ScoreEdges(s, lo, hi)
	}); err != nil {
		return nil, err
	}
	return s, nil
}
