package repro

import (
	"repro/internal/filter"
	"repro/internal/graph"
)

// The pipeline's failure categories are typed so callers — and the
// backboned HTTP daemon — can dispatch with errors.Is / errors.As
// instead of matching message strings. All of them indicate caller
// error (HTTP 4xx); anything else is a runtime failure.
var (
	// ErrUnknownMethod: the method name is not in the registry.
	ErrUnknownMethod = filter.ErrUnknownMethod
	// ErrUnknownParam: a parameter the selected method does not
	// declare. Always wrapped in a *ParamError.
	ErrUnknownParam = filter.ErrUnknownParam
	// ErrNoScorer: Score or top-k pruning requested of an extract-only
	// method (mst).
	ErrNoScorer = filter.ErrNoScorer
	// ErrUnknownFormat: a graph I/O format name ReadGraph/WriteGraph
	// do not know.
	ErrUnknownFormat = graph.ErrUnknownFormat
	// ErrLineTooLong: an edge-list input line exceeded the per-line cap.
	ErrLineTooLong = graph.ErrLineTooLong
	// ErrUnsafeLabel: a node label contains the field separator (or a
	// line break) of the csv or tsv output asked for.
	ErrUnsafeLabel = graph.ErrUnsafeLabel
)

// ParamError reports an invalid method or pipeline parameter: the
// offending name, a reason, and (for undeclared names) ErrUnknownParam
// as its Unwrap target.
type ParamError = filter.ParamError
