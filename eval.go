package repro

import (
	"context"
	"fmt"

	"repro/internal/eval"
	"repro/internal/graph"
)

// This file is the public face of the backbone-evaluation subsystem
// (internal/eval): the paper's quality criteria — coverage, stability,
// recovery, quality (Section III-A, Figs 4/7/8, Table II) — served
// through the same functional-options idiom as Backbone.
//
//	rep, err := repro.Compare(g)                                  // every method, top 10%
//	rep, err := repro.CompareContext(ctx, g,
//	    repro.WithMethods("nc", "df", "mst"),
//	    repro.WithTopFraction(0.05),
//	    repro.WithNextSnapshot(gNextYear))                        // enables Stability
//	fmt.Println(rep.Ranking)                                      // best composite first
//
// Criteria whose inputs are absent (no next snapshot, no ground truth,
// no quality design) are NaN in the report; the criterion fields are
// typed Float, which marshals NaN as JSON null, so reports always
// encode cleanly.

// EvalReport is the full evaluation of one graph: per-method criteria
// plus, for Compare runs, the size-matched ranking.
type EvalReport = eval.Report

// MethodEval grades one method's backbone under the run's criteria.
type MethodEval = eval.MethodEval

// Float is a float64 that marshals NaN and ±Inf as JSON null —
// encoding/json rejects them as numbers, and the evaluation criteria
// legitimately produce NaN on empty denominators.
type Float = eval.Float

// Designer supplies OLS designs for the Quality criterion: given a
// dataset name and an edge set, it returns the regression target and
// predictor columns. See WithQualityDesign.
type Designer = eval.Designer

// ScoreSource supplies a (possibly cached) significance table for a
// method, returning whether the call skipped scoring. The backboned
// daemon plugs its content-addressed score cache in here.
type ScoreSource = eval.ScoreSource

// ExtractSource supplies a (possibly cached) extracted backbone for a
// method whose cut reads no significance table (mst, and ds at its
// natural size), returning whether the call skipped extracting. The
// backboned daemon plugs its content-addressed score cache in here too.
type ExtractSource = eval.ExtractSource

// WithMethods narrows an evaluation to the named methods (default:
// every registered method, in registry order).
func WithMethods(names ...string) Option {
	return func(c *config) {
		c.evalMethods = append([]string{}, names...)
	}
}

// WithNextSnapshot supplies the t+1 observation of the same network,
// enabling the Stability criterion: the Spearman correlation between
// backbone edge weights at t and the same pairs' weights in next
// (Section V-F, Fig 8).
//
// The snapshot must share the evaluated graph's node-ID space: the
// cross-snapshot join compares by node ID, not by label. A graph read
// from a separate edge list (whose first-appearance ID order will
// differ) must be aligned first — AlignNodes(g, next) does exactly
// that, and the backbone CLI applies it to -next automatically.
func WithNextSnapshot(next *Graph) Option {
	return func(c *config) { c.evalNext = next }
}

// WithGroundTruth supplies the planted true network, enabling the
// Recovery criterion: the Jaccard similarity between each backbone's
// edge set and the truth's (Section V-A, Fig 4). Like WithNextSnapshot,
// the truth must share the evaluated graph's node-ID space; align
// independently read graphs with AlignNodes first.
func WithGroundTruth(truth *Graph) Option {
	return func(c *config) { c.evalTruth = truth }
}

// AlignNodes re-expresses g on ref's node-ID space by matching node
// labels, dropping edges whose endpoints ref does not know. Use it
// before WithNextSnapshot / WithGroundTruth when the two graphs were
// read from independent edge lists: node IDs are assigned in label
// first-appearance order, so two files listing the same network in
// different row orders disagree on every ID, and an unaligned join
// would correlate unrelated node pairs.
func AlignNodes(ref, g *Graph) *Graph {
	return graph.AlignLabels(ref, g)
}

// WithQualityDesign supplies the OLS design for the Quality criterion:
// each method's quality is the R² of the designer's model restricted to
// its backbone's edges, relative to the R² on all edges (Section V-E,
// Table II).
func WithQualityDesign(d Designer, dataset string) Option {
	return func(c *config) { c.evalDesigner, c.evalDataset = d, dataset }
}

// WithScoreSource replaces direct scoring with the given source — e.g.
// a content-addressed cache — so repeated runs on the same graph skip
// scoring entirely. Backbone, SelectContext, BackboneAll, Score and the
// evaluations all read it, and only when the cut (or the score reply)
// reads a significance table. The table may belong to a
// content-identical graph value rather than the run's own: the backbone
// is selected over the table's graph. Mutually exclusive with
// WithScores and WithDirtyScores.
func WithScoreSource(src ScoreSource) Option {
	return func(c *config) { c.scoreSource = src }
}

// WithExtractSource replaces running a method's extractor with the
// given source, so repeated runs on the same graph extract nothing
// either. It is consulted for exactly the cuts WithScoreSource is not:
// those that take the extractor's fixed-size backbone (mst; ds without
// top-k), as Method.BackboneCtx decides. It may key its entries by
// graph and method alone, since an extractor takes no parameters.
// Mutually exclusive with WithScores and WithDirtyScores.
func WithExtractSource(src ExtractSource) Option {
	return func(c *config) { c.extractSource = src }
}

// WithEvalProgress registers a per-method scoring progress callback; fn
// is invoked concurrently from the per-method goroutines.
func WithEvalProgress(fn func(method string, done, total int)) Option {
	return func(c *config) { c.evalProgress = fn }
}

// WithEvalConcurrency bounds how many methods an evaluation runs at
// once (default: all concurrently, one goroutine per method). The
// backboned daemon evaluates with concurrency 1 so one /evaluate
// request occupies its bounded worker-pool slot with at most one
// scoring computation at a time, keeping -workers an honest cap on
// machine load.
func WithEvalConcurrency(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.setErr(&ParamError{Param: "concurrency", Reason: fmt.Sprintf("WithEvalConcurrency(%d): must be non-negative", n)})
			return
		}
		c.evalConcurrency = n
	}
}

// evalConfig translates the shared option set into the engine's
// configuration. WithMethod (singular) narrows the evaluation to that
// one method, so pipeline-style calls compose; WithParam/WithDelta/...
// ride along leniently, each method resolving only the parameters it
// declares.
func evalConfig(opts []Option) (eval.Config, error) {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	if c.err != nil {
		return eval.Config{}, c.err
	}
	if c.scores != nil {
		return eval.Config{}, &ParamError{Param: "scores", Reason: "use WithScoreSource to reuse score tables across an evaluation"}
	}
	methods := c.evalMethods
	if len(methods) == 0 && c.methodSet {
		methods = []string{c.method}
	}
	cfg := eval.Config{
		Methods:       methods,
		TopK:          c.topK,
		TopKSet:       c.topKSet,
		Frac:          c.topFrac,
		FracSet:       c.fracSet,
		MaxConcurrent: c.evalConcurrency,
		Params:        c.params,
		Next:          c.evalNext,
		Truth:         c.evalTruth,
		Designer:      c.evalDesigner,
		Dataset:       c.evalDataset,
		Source:        c.scoreSource,
		Extract:       c.extractSource,
		Progress:      c.evalProgress,
	}
	if cfg.Progress == nil && c.progress != nil {
		// A method-agnostic WithProgress still works: method names are
		// dropped, totals interleave across methods (BackboneAll-style).
		fn := c.progress
		cfg.Progress = func(_ string, done, total int) { fn(done, total) }
	}
	return cfg, nil
}

// Evaluate grades each selected method at its own natural operating
// point — scoring methods prune at their (default or overridden)
// threshold, extract-only methods run their extractor — and reports the
// criteria per method. Use Compare for the paper's size-matched
// ranking. Evaluate never cancels; use EvaluateContext to bound a run.
func Evaluate(g *Graph, opts ...Option) (*EvalReport, error) {
	return EvaluateContext(context.Background(), g, opts...)
}

// EvaluateContext is Evaluate under a context: scoring checks ctx
// between checkpoint ranges and the run returns ctx.Err() promptly
// after cancellation or deadline expiry.
func EvaluateContext(ctx context.Context, g *Graph, opts ...Option) (*EvalReport, error) {
	cfg, err := evalConfig(opts)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(ctx, g, cfg)
}

// Compare grades every selected method at one common backbone size
// (WithTopK / WithTopFraction; default the top 10% of edges) and ranks
// them by composite criterion — the paper's protocol of comparing
// algorithms at identical backbone sizes. Fixed-size methods (mst, ds)
// keep their natural size, as in the paper's sweep figures. Each method
// scores at most once per comparison; a WithScoreSource cache can drop
// that to zero. Compare never cancels; use CompareContext.
func Compare(g *Graph, opts ...Option) (*EvalReport, error) {
	return CompareContext(context.Background(), g, opts...)
}

// CompareContext is Compare under a context, with the same cancellation
// semantics as EvaluateContext.
func CompareContext(ctx context.Context, g *Graph, opts ...Option) (*EvalReport, error) {
	cfg, err := evalConfig(opts)
	if err != nil {
		return nil, err
	}
	return eval.Compare(ctx, g, cfg)
}
