package filter

// Incremental re-scoring: given a score table computed for one graph
// and the graph.Dirty record tying it to a delta-materialized
// successor, RescoreDirty produces the successor's table by copying
// every row the update stream cannot have changed and re-running the
// scorer only on the dirty rows. Which rows an update dirties is the
// method's dirtiness signature, declared on the registry Method via the
// DeltaScorer capability; methods without it fall back to a full
// rescore transparently, so callers never branch on capability.

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Dirtiness classifies how far one edge update reaches into a method's
// score table.
type Dirtiness int

const (
	// DirtyEdge marks scores that are functions of the edge's own
	// weight only (naive threshold): an update dirties exactly the rows
	// whose weight changed, plus inserted rows.
	DirtyEdge Dirtiness = iota
	// DirtyEndpoints marks scores that additionally read endpoint
	// strength or degree (disparity): an update dirties the frontier —
	// every row incident to a touched node.
	DirtyEndpoints
	// DirtyGlobal marks scores with a global term (noise-corrected's
	// total weight): any update dirties the whole table. The
	// incremental path still skips parsing and CSR assembly but
	// re-scores every row.
	DirtyGlobal
)

// String names the signature for logs and docs.
func (d Dirtiness) String() string {
	switch d {
	case DirtyEdge:
		return "edge"
	case DirtyEndpoints:
		return "endpoints"
	case DirtyGlobal:
		return "global"
	}
	return fmt.Sprintf("Dirtiness(%d)", int(d))
}

// DeltaScorer is the incremental re-scoring capability a Method may
// declare. A method that declares one must have a Scorer implementing
// RangeScorer (Method.validate enforces this), so dirty row runs can be
// recomputed in place on a fresh table.
type DeltaScorer struct {
	// Dirtiness is the method's dirtiness signature: how far one edge
	// update reaches into its score table.
	Dirtiness Dirtiness
}

// RescoreDirty computes method m's score table for dirty.For, reusing
// rows from old — the table previously computed for dirty.Base — that
// the update stream between the two graphs cannot have changed. The
// result is bit-identical to scoring dirty.For from scratch; the int
// result is the number of rows actually re-scored.
//
// Fallback is transparent: if m does not rescore locally (see
// Method.RescoresLocally), old is nil, old was computed for a different
// graph than dirty.Base, or dirty carries no row diff (only hand-built
// records lack one), the full ScoreCtx path runs instead (and the
// rescored count is the table size).
//
// On the incremental path the table also inherits old's last threshold
// cut (see Scores.Select): old's kept rows move through the row diff,
// and only the re-scored rows are compared against the cut again. A
// read of the same cut on the new table then costs O(kept + rescored),
// not a walk of the table. The fallback returns a table with no cut.
//
// With dirty.Exclusive the call consumes old — its columns become the
// new table, shifted in place — even when it returns an error: a
// cancelled exclusive call leaves old half-migrated, so the caller must
// discard it either way.
func RescoreDirty(ctx context.Context, m *Method, old *Scores, dirty graph.Dirty, o ScoreOpts) (*Scores, int, error) {
	g := dirty.For
	if g == nil {
		return nil, 0, fmt.Errorf("filter: RescoreDirty: dirty record has no target graph")
	}
	diff := dirty.Diff
	if !m.RescoresLocally() || old == nil || old.G != dirty.Base || diff == nil || old.Method != m.Scorer.Name() {
		s, err := m.ScoreCtx(ctx, g, o)
		if err != nil {
			return nil, 0, err
		}
		return s, g.NumEdges(), nil
	}

	// Clean rows are carried over through the diff's segment map. When
	// the previous generation is surrendered (Dirty.Exclusive) the old
	// columns themselves become the new table, segments shifted in
	// place; otherwise they are block-copied into fresh columns.
	s := migrateTable(old, g, diff, dirty.Exclusive)
	rs := m.Scorer.(RangeScorer)
	rows := diff.Changed
	if m.Delta.Dirtiness == DirtyEndpoints {
		rows = diff.Frontier
	}
	rescored := 0
	for i := 0; i < len(rows); {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		lo := int(rows[i])
		hi := lo + 1
		i++
		for i < len(rows) && int(rows[i]) == hi && hi-lo < Checkpoint {
			hi++
			i++
		}
		rs.ScoreEdges(s, lo, hi)
		rescored += hi - lo
	}
	if c := old.cut.Load(); c != nil {
		carryCut(c, s, diff, rows)
	}
	return s, rescored, nil
}

// tableSlack is the extra capacity a migrated column is reallocated
// with, so a run of insert-heavy updates pays for one reallocation and
// then shifts in place until the delta compacts.
const tableSlack = 4096

// migrateTable carries old's clean rows into g's table through the
// diff's segment map. With inPlace (old was surrendered) every column
// whose capacity admits the new row count is resliced and its clean
// segments shifted in place — a pure re-weight batch moves nothing,
// since zero-shift segments are skipped. Every other column — all of
// them without inPlace, and those that must grow beyond capacity
// (NewTable allocates exact-capacity columns, so the first insert
// after a full scoring lands here) — is copied into a fresh one
// allocated with slack, leaving old's column untouched. Dirty rows are
// left stale; the caller re-scores all of them. The structure (Method,
// Aux names) is cloned from the old table, which the delta-capable
// scorers' NewTable implementations produce from those same fields
// alone.
func migrateTable(old *Scores, g *graph.Graph, diff *graph.RowDiff, inPlace bool) *Scores {
	newM := g.NumEdges()
	move := func(src []float64) []float64 {
		if inPlace && cap(src) >= newM {
			// Shift within the shared backing; sources are read through
			// src (the old length) since a shrinking batch leaves them
			// beyond the new length.
			dst := src[:newM]
			for _, sc := range diff.Copies {
				if sc.ForLo < sc.BaseLo {
					copy(dst[sc.ForLo:sc.ForLo+sc.Len], src[sc.BaseLo:sc.BaseLo+sc.Len])
				}
			}
			for k := len(diff.Copies) - 1; k >= 0; k-- {
				sc := diff.Copies[k]
				if sc.ForLo > sc.BaseLo {
					copy(dst[sc.ForLo:sc.ForLo+sc.Len], src[sc.BaseLo:sc.BaseLo+sc.Len])
				}
			}
			return dst
		}
		dst := make([]float64, newM, newM+tableSlack)
		for _, sc := range diff.Copies {
			copy(dst[sc.ForLo:sc.ForLo+sc.Len], src[sc.BaseLo:sc.BaseLo+sc.Len])
		}
		return dst
	}
	s := &Scores{G: g, Method: old.Method, Score: move(old.Score)}
	if len(old.Aux) > 0 {
		s.Aux = make(map[string][]float64, len(old.Aux))
		//lint:detiter-ok writes into a fresh map; iteration order is irrelevant
		for name, col := range old.Aux {
			s.Aux[name] = move(col)
		}
	}
	return s
}

// carryCut makes c, the last cut of s's predecessor, s's own: a row
// the diff copies kept its score bit for bit, so it stays on the side
// of the cut it was on, while the re-scored rows (ascending, and
// covering every row the diff does not copy) are compared again. The
// kept ids of one copied run move as blocks between the re-scored
// rows inside it, into one allocation.
func carryCut(c *thresholdCut, s *Scores, diff *graph.RowDiff, rows []int32) {
	old := c.sel.IDs
	ids := make([]int32, 0, len(old)+len(rows))
	for _, sc := range diff.Copies {
		// Kept ids before the run were deleted or re-weighted.
		lo, _ := slices.BinarySearch(old, sc.BaseLo)
		hi, _ := slices.BinarySearch(old, sc.BaseLo+sc.Len)
		run, shift := old[lo:hi], sc.ForLo-sc.BaseLo
		old = old[hi:]
		for len(run) > 0 {
			k := len(run)
			if len(rows) > 0 {
				k, _ = slices.BinarySearch(run, rows[0]-shift)
			}
			n := len(ids)
			ids = append(ids, run[:k]...)
			if shift != 0 {
				for i := n; i < len(ids); i++ {
					ids[i] += shift
				}
			}
			if run = run[k:]; len(run) == 0 {
				break
			}
			if run[0]+shift == rows[0] {
				run = run[1:] // re-scored: its new score decides
			}
			if s.Score[rows[0]] > c.t {
				ids = append(ids, rows[0])
			}
			rows = rows[1:]
		}
	}
	for _, id := range rows {
		if s.Score[id] > c.t {
			ids = append(ids, id)
		}
	}
	s.remember(c.t, ids)
}
