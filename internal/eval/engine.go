package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Float is a float64 whose JSON form is null when the value is NaN or
// infinite — encoding/json rejects those outright, and the criteria
// legitimately produce NaN on empty denominators (Coverage of an
// edgeless network, Stability of a one-edge backbone, the paper's "n/a"
// Quality cells). Criterion fields in Report/MethodEval use it so every
// report marshals cleanly on every input.
type Float float64

// MarshalJSON encodes NaN and ±Inf as null, everything else as a plain
// JSON number.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON decodes null back to NaN, inverting MarshalJSON.
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// ScoreSource supplies a (possibly cached) significance table for a
// method, returning whether the call skipped scoring — the backboned
// daemon plugs its content-addressed score cache in here so
// re-evaluating a cached body scores nothing at all. Methods are
// evaluated concurrently, so the source must be safe for concurrent
// calls (a cache.LRU is; a bare map is not).
type ScoreSource func(ctx context.Context, m *filter.Method) (*filter.Scores, bool, error)

// ExtractSource supplies a (possibly cached) backbone for a method
// graded without a table (mst, and ds at its natural size), as the
// selection of every edge of the extracted graph, returning whether the
// call skipped extracting. A cache may key it by graph and method
// alone, without parameters, only because Extractor.Extract(g) takes
// none. The backboned daemon plugs its score cache in here so a
// cache-hit comparison extracts nothing. Like ScoreSource it must be
// safe for concurrent calls.
type ExtractSource func(ctx context.Context, m *filter.Method) (graph.Selection, bool, error)

// Config parameterizes one evaluation run. The zero value evaluates
// every method of the default registry with only the always-available
// criteria (coverage, edge share).
type Config struct {
	// Methods narrows the evaluation to the named methods; empty means
	// every registered method, in registry order.
	Methods []string
	// TopK / Frac pin the comparison size for rankable methods (Compare
	// only; fixed-size and extract-only methods keep their natural size,
	// as in the paper's sweep figures). When neither is set Compare
	// defaults to Frac = 0.1.
	TopK    int
	TopKSet bool
	Frac    float64
	FracSet bool
	// MaxConcurrent bounds how many methods evaluate at once; 0 means
	// all of them (one goroutine per method). The backboned daemon sets
	// 1 so a single /evaluate request consumes one worker-pool slot's
	// worth of scoring at a time, like its sibling endpoints.
	MaxConcurrent int
	// Params are ride-along parameter overrides, applied leniently: each
	// method resolves only the parameters it declares (BackboneAll
	// semantics). A parameter no selected method declares is an error.
	Params filter.Params
	// Next, when non-nil, is the t+1 observation of the same network and
	// enables the Stability criterion.
	Next *graph.Graph
	// Truth, when non-nil, is the planted ground-truth graph and enables
	// the Recovery criterion.
	Truth *graph.Graph
	// Designer + Dataset enable the Quality criterion (R² ratio of the
	// designer's OLS model restricted to each backbone).
	Designer Designer
	Dataset  string
	// Source, when non-nil, replaces direct scoring; see ScoreSource.
	Source ScoreSource
	// Extract, when non-nil, replaces running the extractor; see
	// ExtractSource.
	Extract ExtractSource
	// Progress, when non-nil, receives per-method scoring progress. It
	// is called concurrently from the per-method goroutines.
	Progress func(method string, done, total int)
}

// MethodEval grades one method's backbone under the configured
// criteria. Criterion fields are NaN (JSON: null) when their inputs
// were not supplied or the criterion is undefined on this graph.
type MethodEval struct {
	Method string             `json:"method"`
	Title  string             `json:"title"`
	Params map[string]float64 `json:"params,omitempty"`
	// Err is the method's runtime failure ("" when it ran): e.g. the
	// doubly stochastic transformation not existing for this graph — the
	// "n/a" entries of the paper's Table II. Criteria are NaN when set.
	Err string `json:"error,omitempty"`
	// Edges is the backbone size; EdgeShare its fraction of the input's
	// edges (informative for fixed-size methods, which ignore TopK/Frac).
	Edges     int   `json:"edges"`
	EdgeShare Float `json:"edge_share"`
	// Coverage is the share of originally non-isolated nodes kept
	// non-isolated (Fig 7).
	Coverage Float `json:"coverage"`
	// Stability is the cross-snapshot Spearman weight correlation over
	// backbone edges (Fig 8); NaN without Config.Next.
	Stability Float `json:"stability"`
	// Recovery is the Jaccard similarity to the ground-truth edge set
	// (Fig 4); NaN without Config.Truth.
	Recovery Float `json:"recovery"`
	// Quality is the restricted-OLS R² ratio (Table II); NaN without
	// Config.Designer.
	Quality Float `json:"quality"`
	// Composite is the mean of the available criteria — the ranking key.
	Composite Float `json:"composite"`
	// ScoreCached reports that the significance table came from the
	// ScoreSource's cache, skipping scoring entirely.
	ScoreCached bool  `json:"score_cached,omitempty"`
	DurationMs  int64 `json:"duration_ms"`

	// scored marks methods that needed a significance table at all
	// (extract-only runs never score); it feeds Report.ScoredMethods.
	scored bool
}

// Report is the full evaluation of one graph: per-method criteria plus,
// for Compare runs, the size-matched ranking.
type Report struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// SizeMatched marks Compare runs: rankable methods were cut to
	// TargetEdges before grading, the paper's equal-|E*| protocol.
	SizeMatched bool `json:"size_matched"`
	TargetEdges int  `json:"target_edges,omitempty"`
	// Methods holds one entry per evaluated method, in selection order.
	Methods []*MethodEval `json:"methods"`
	// Ranking lists the methods that ran, best Composite first
	// (Compare only).
	Ranking []string `json:"ranking,omitempty"`
	// ScoredMethods counts methods that needed a significance table;
	// CacheHits how many of those tables the ScoreSource served without
	// scoring. ScoredMethods == CacheHits means the run scored nothing.
	ScoredMethods int   `json:"scored_methods"`
	CacheHits     int   `json:"cache_hits"`
	DurationMs    int64 `json:"duration_ms"`
}

// Evaluate grades each selected method at its own natural operating
// point: scoring methods prune at their default (or overridden)
// threshold via their Cut rule, extract-only methods run their
// extractor. Use Compare for the paper's size-matched protocol.
func Evaluate(ctx context.Context, g *graph.Graph, cfg Config) (*Report, error) {
	return run(ctx, g, cfg, false)
}

// Compare grades every selected method at one common backbone size
// (TopK/Frac, default the top 10% of edges) — the paper's protocol of
// comparing algorithms at identical backbone sizes — and ranks them by
// composite criterion. Fixed-size methods (mst, ds) keep their natural
// size and are reported alongside, as in the paper's sweep figures.
func Compare(ctx context.Context, g *graph.Graph, cfg Config) (*Report, error) {
	return run(ctx, g, cfg, true)
}

// Ranked reports whether a run cuts m to the comparison size: a Compare
// run (sizeMatched) ranks every rankable method, while fixed-size and
// extract-only methods, and every method in an Evaluate run, take their
// natural cut. Method.BackboneCtx then decides from that alone whether
// grading m reads a table (Config.Source) or an extraction
// (Config.Extract); a caller that predicts which cached entries a run
// reads (the daemon's admission) asks m.NeedsTable(Ranked(m, true)).
func Ranked(m *filter.Method, sizeMatched bool) bool {
	return sizeMatched && m.CanScore() && !m.FixedSize
}

// run is the shared engine: resolve the method set, precompute the
// shared Quality denominator, evaluate every method concurrently (one
// goroutine per method, mirroring BackboneAll), then aggregate.
func run(ctx context.Context, g *graph.Graph, cfg Config, sizeMatched bool) (*Report, error) {
	start := time.Now()
	// Ride-along parameters follow BackboneAll's rule: each method
	// resolves the ones it declares, and one no selected method declares
	// is a misspelling.
	selected, err := filter.Default.Select(cfg.Methods, cfg.Params)
	if err != nil {
		return nil, err
	}

	// Comparison size for rankable methods.
	target := 0
	if sizeMatched {
		switch {
		case cfg.TopKSet:
			target = cfg.TopK
		case cfg.FracSet:
			target = int(cfg.Frac*float64(g.NumEdges()) + 0.5)
		default:
			target = int(0.1*float64(g.NumEdges()) + 0.5)
		}
		if target < 0 {
			return nil, &filter.ParamError{Param: "top", Reason: fmt.Sprintf("comparison size %d must be non-negative", target)}
		}
	}

	// The Quality denominator — the OLS fit on the full edge set — is
	// shared by every method, so it is computed once per run.
	r2Full := math.NaN()
	if cfg.Designer != nil {
		yF, xF, err := cfg.Designer.Design(cfg.Dataset, g.Edges())
		if err != nil {
			return nil, fmt.Errorf("eval: full design: %w", err)
		}
		fit, err := stats.OLS(yF, xF...)
		if err != nil {
			return nil, fmt.Errorf("eval: full fit: %w", err)
		}
		r2Full = fit.R2
	}

	rep := &Report{
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		SizeMatched: sizeMatched,
		TargetEdges: target,
		Methods:     make([]*MethodEval, len(selected)),
	}
	var sem chan struct{}
	if cfg.MaxConcurrent > 0 {
		sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	var wg sync.WaitGroup
	for i, m := range selected {
		wg.Add(1)
		go func(i int, m *filter.Method) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			rep.Methods[i] = evaluateMethod(ctx, g, m, cfg, sizeMatched, target, r2Full)
		}(i, m)
	}
	wg.Wait()
	// Cooperative cancellation: any per-method ctx failure means the
	// whole run was cut short, not that a method is infeasible.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, me := range rep.Methods {
		if me.ScoreCached {
			rep.CacheHits++
		}
		if me.scored {
			rep.ScoredMethods++
		}
	}
	if sizeMatched {
		rep.Ranking = ranking(rep.Methods)
	}
	rep.DurationMs = time.Since(start).Milliseconds()
	return rep, nil
}

// ranking orders the methods that ran by Composite, descending, with
// NaN composites last and selection order breaking ties — deterministic
// across runs.
func ranking(evals []*MethodEval) []string {
	idx := make([]int, 0, len(evals))
	for i, me := range evals {
		if me.Err == "" {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ca, cb := float64(evals[idx[a]].Composite), float64(evals[idx[b]].Composite)
		switch {
		case math.IsNaN(ca):
			return false
		case math.IsNaN(cb):
			return true
		default:
			return ca > cb
		}
	})
	out := make([]string, len(idx))
	for i, id := range idx {
		out[i] = evals[id].Method
	}
	return out
}

// evaluateMethod runs one method and grades its backbone. Failures land
// in MethodEval.Err (criteria NaN), matching the "n/a" cells of the
// paper's tables; context expiry is surfaced the same way and promoted
// to a run-level error by the caller.
func evaluateMethod(ctx context.Context, g *graph.Graph, m *filter.Method, cfg Config, sizeMatched bool, target int, r2Full float64) (me *MethodEval) {
	start := time.Now()
	nan := Float(math.NaN())
	me = &MethodEval{
		Method: m.Name, Title: m.Title,
		EdgeShare: nan, Coverage: nan, Stability: nan, Recovery: nan, Quality: nan, Composite: nan,
	}
	defer func() { me.DurationMs = time.Since(start).Milliseconds() }()

	params, err := m.Resolve(m.Declared(cfg.Params))
	if err != nil {
		me.Err = err.Error()
		return me
	}
	me.Params = params

	score := func() (*filter.Scores, error) {
		me.scored = true
		if cfg.Source != nil {
			s, cached, err := cfg.Source(ctx, m)
			me.ScoreCached = cached
			return s, err
		}
		var opts filter.ScoreOpts
		if cfg.Progress != nil {
			opts.Progress = func(done, total int) { cfg.Progress(m.Name, done, total) }
		}
		return m.ScoreCtx(ctx, g, opts)
	}

	// Fixed-size and extract-only methods (mst; ds in both modes, in
	// Evaluate mode because its default backbone is its extractor's)
	// keep their natural output regardless of the comparison size — the
	// paper plots them as single points.
	k := -1
	if Ranked(m, sizeMatched) {
		k = target
	}
	var extract func() (graph.Selection, error)
	if cfg.Extract != nil {
		extract = func() (graph.Selection, error) {
			sel, _, err := cfg.Extract(ctx, m)
			return sel, err
		}
	}
	sel, _, err := m.BackboneCtx(ctx, g, params, k, score, extract)
	if err != nil {
		me.Err = err.Error()
		return me
	}

	// Size and coverage are read off the selection; only the criteria
	// that join the backbone against another graph build it.
	me.Edges = sel.Len()
	if e := g.NumEdges(); e > 0 {
		me.EdgeShare = Float(float64(sel.Len()) / float64(e))
	}
	me.Coverage = Float(Coverage(g, sel))
	if cfg.Next != nil || cfg.Truth != nil || cfg.Designer != nil {
		bb := sel.Graph()
		if cfg.Next != nil {
			me.Stability = Float(Stability(bb, cfg.Next))
		}
		if cfg.Truth != nil {
			me.Recovery = Float(Recovery(bb, cfg.Truth))
		}
		if cfg.Designer != nil {
			me.Quality = Float(quality(cfg.Designer, cfg.Dataset, g, bb, r2Full))
		}
	}
	me.Composite = composite(me)
	return me
}

// quality computes the Table-II criterion against a precomputed full
// fit: NaN (the paper's "n/a") when the backbone leaves no usable
// observations or the restricted fit fails.
func quality(d Designer, dataset string, full, bb *graph.Graph, r2Full float64) float64 {
	edges := RestrictEdges(full, bb)
	if len(edges) == 0 || math.IsNaN(r2Full) || r2Full <= 0 {
		return math.NaN()
	}
	yB, xB, err := d.Design(dataset, edges)
	if err != nil {
		return math.NaN()
	}
	fit, err := stats.OLS(yB, xB...)
	if err != nil {
		return math.NaN()
	}
	return fit.R2 / r2Full
}

// composite averages the available (non-NaN) criteria — coverage,
// stability, recovery, quality — into the ranking key. Which criteria
// are available depends on the inputs supplied in Config, so rankings
// are only comparable across runs with the same criteria enabled.
func composite(me *MethodEval) Float {
	var sum float64
	n := 0
	for _, v := range []Float{me.Coverage, me.Stability, me.Recovery, me.Quality} {
		if f := float64(v); !math.IsNaN(f) && !math.IsInf(f, 0) {
			sum += f
			n++
		}
	}
	if n == 0 {
		return Float(math.NaN())
	}
	return Float(sum / float64(n))
}
