package repro

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/graph"
)

// Method is a registry entry describing one backboning algorithm: its
// name, description, typed parameter schema, and scoring/extraction
// capabilities. See Methods and the filter package.
type Method = filter.Method

// Param describes one tunable parameter of a Method.
type Param = filter.Param

// Methods lists every registered backboning method in presentation
// order (nc, df, hss, ds, mst, nt, nc-binomial, kcore, ...). New
// algorithms appear here automatically once they self-register.
func Methods() []*Method { return filter.All() }

// LookupMethod returns the registered method with the given name.
func LookupMethod(name string) (*Method, error) { return filter.Lookup(name) }

// config collects the pipeline options; zero value = NC at defaults.
type config struct {
	method    string
	methodSet bool
	params    filter.Params
	topK      int
	topKSet   bool
	topFrac   float64
	fracSet   bool
	parallel  bool
	scores    *Scores
	dirtyOld  *Scores
	dirty     graph.Dirty
	dirtySet  bool
	progress  func(done, total int)
	lenient   bool // skip params the method does not declare (BackboneAll)
	err       error

	// Evaluation-only options (EvaluateContext / CompareContext); see
	// eval.go. resolve rejects them on the single-method pipeline.
	evalMethods     []string
	evalNext        *Graph
	evalTruth       *Graph
	evalDesigner    Designer
	evalDataset     string
	evalSource      ScoreSource
	evalProgress    func(method string, done, total int)
	evalConcurrency int
}

// evalOnly names the first evaluation-only option set on c, or "".
func (c *config) evalOnly() string {
	switch {
	case c.evalMethods != nil:
		return "WithMethods"
	case c.evalNext != nil:
		return "WithNextSnapshot"
	case c.evalTruth != nil:
		return "WithGroundTruth"
	case c.evalDesigner != nil:
		return "WithQualityDesign"
	case c.evalSource != nil:
		return "WithScoreSource"
	case c.evalProgress != nil:
		return "WithEvalProgress"
	case c.evalConcurrency != 0:
		return "WithEvalConcurrency"
	}
	return ""
}

// Option configures Backbone, Score and BackboneAll.
type Option func(*config)

func (c *config) setErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithMethod selects the backboning algorithm by registry name
// ("nc", "df", "hss", "ds", "mst", "nt", "nc-binomial", "kcore").
// The default is "nc".
func WithMethod(name string) Option {
	return func(c *config) { c.method, c.methodSet = name, true }
}

// WithParam sets one method parameter by its schema name. Setting a
// parameter the selected method does not declare is an error.
func WithParam(name string, value float64) Option {
	return func(c *config) {
		if c.params == nil {
			c.params = filter.Params{}
		}
		c.params[name] = value
	}
}

// WithDelta sets the NC significance threshold δ (in posterior standard
// deviations). Shorthand for WithParam("delta", delta).
func WithDelta(delta float64) Option { return WithParam("delta", delta) }

// WithAlpha sets the significance level α of the df and nc-binomial
// methods. Shorthand for WithParam("alpha", alpha).
func WithAlpha(alpha float64) Option { return WithParam("alpha", alpha) }

// WithSalience sets the hss minimum salience.
func WithSalience(s float64) Option { return WithParam("salience", s) }

// WithWeightThreshold sets the nt minimum edge weight.
func WithWeightThreshold(t float64) Option { return WithParam("threshold", t) }

// WithK sets the kcore minimum degree k.
func WithK(k int) Option { return WithParam("k", float64(k)) }

// WithTopK prunes to exactly the k most significant edges instead of
// the method's native threshold — the paper's size-matched comparison.
// Errors for methods without a scorer (mst).
func WithTopK(k int) Option {
	return func(c *config) {
		if k < 0 {
			c.setErr(&ParamError{Param: "top", Reason: fmt.Sprintf("WithTopK(%d): k must be non-negative", k)})
			return
		}
		c.topK, c.topKSet = k, true
	}
}

// WithTopFraction prunes to the given share (0..1] of the graph's
// edges. Errors for methods without a scorer (mst).
func WithTopFraction(f float64) Option {
	return func(c *config) {
		if f <= 0 || f > 1 {
			c.setErr(&ParamError{Param: "frac", Reason: fmt.Sprintf("WithTopFraction(%v): fraction must be in (0, 1]", f)})
			return
		}
		c.topFrac, c.fracSet = f, true
	}
}

// WithParallel requests the method's multi-core scorer when it has one
// (nc does); methods without one run serially, results are identical
// either way.
func WithParallel() Option {
	return func(c *config) { c.parallel = true }
}

// WithScores supplies a precomputed significance table so Backbone can
// skip scoring and go straight to pruning — the backboned daemon's
// score cache rides on this. The table must belong to the same *Graph
// value (enforced), and must have been produced by the selected
// method — that pairing is the caller's contract and cannot be
// verified, because Scores.Method names the concrete scorer variant
// ("nc-parallel"), not the registry entry. Method parameters (delta,
// alpha, ...) still apply: they only move the pruning threshold, never
// the table itself.
func WithScores(s *Scores) Option {
	return func(c *config) { c.scores = s }
}

// WithDirtyScores supplies the previous materialization's score table
// plus the Dirty record a Delta materialization produced, so the run
// re-scores only the rows the update stream could have changed
// (filter.RescoreDirty) and reuses everything else — the incremental
// sibling of WithScores. old may be nil (e.g. the first run of a
// session); methods without a delta capability fall back to a full
// rescore transparently. Either way the resulting table is
// bit-identical to scoring from scratch. The graph passed to the run
// must be dirty.For (enforced), and old, when set, must have been
// computed for dirty.Base by the same method. Mutually exclusive with
// WithScores.
func WithDirtyScores(old *Scores, dirty Dirty) Option {
	return func(c *config) { c.dirtyOld, c.dirty, c.dirtySet = old, dirty, true }
}

// WithProgress registers a callback for long runs: fn is invoked after
// every scored checkpoint range (a few thousand edges) with the
// cumulative number of scored edges and the total. Parallel runs call
// fn concurrently from worker goroutines, and BackboneAll interleaves
// the progress of its methods, so fn must be safe for concurrent use.
// Methods that do not score by ranges (hss, mst, ds) report no
// intermediate progress.
func WithProgress(fn func(done, total int)) Option {
	return func(c *config) { c.progress = fn }
}

// Result bundles a pipeline run: the backbone itself, the significance
// table it was pruned from (nil for extract-only methods), and run
// metadata for logging and method comparison.
type Result struct {
	// Method and Title identify the algorithm ("nc", "Noise-Corrected").
	Method string
	Title  string
	// Params are the fully resolved parameter values of the run.
	Params map[string]float64
	// Backbone is the extracted subgraph (full node set preserved).
	Backbone *Graph
	// Scores is the significance table the backbone was pruned from;
	// nil when the method extracts directly (mst, and ds without TopK).
	Scores *Scores
	// Duration is the wall time of scoring plus pruning.
	Duration time.Duration
	// Err is only set on results from BackboneAll: the method's runtime
	// failure (e.g. the doubly stochastic transformation not existing
	// for this graph — the "n/a" entries of the paper's Table II).
	// Backbone and Err are mutually exclusive.
	Err error
	// NodeCoverage is the share of the input's non-isolated nodes still
	// connected in the backbone; EdgeCoverage the share of edges kept.
	NodeCoverage float64
	EdgeCoverage float64
}

func (r *Result) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%s: n/a (%v)", r.Method, r.Err)
	}
	return fmt.Sprintf("%s: %d edges, %.1f%% node coverage, %.1f%% edges, %v",
		r.Method, r.Backbone.NumEdges(), 100*r.NodeCoverage, 100*r.EdgeCoverage, r.Duration.Round(time.Microsecond))
}

// resolve applies the options and looks the method up.
func resolve(opts []Option) (*config, *Method, error) {
	c := &config{method: "nc"}
	for _, o := range opts {
		o(c)
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	if name := c.evalOnly(); name != "" {
		return nil, nil, &ParamError{Param: name, Reason: "option only applies to Evaluate/Compare"}
	}
	m, err := filter.Lookup(c.method)
	if err != nil {
		return nil, nil, err
	}
	if c.lenient {
		kept := filter.Params{}
		//lint:detiter-ok filtering into another map; the kept set is order-independent
		for name, v := range c.params {
			if _, ok := m.Param(name); ok {
				kept[name] = v
			}
		}
		c.params = kept
	}
	return c, m, nil
}

// Backbone runs the full backboning pipeline on g: select a method,
// resolve its parameters, score, prune, and report. With no options it
// extracts the Noise-Corrected backbone at δ = 1.64.
//
//	res, err := repro.Backbone(g, repro.WithMethod("df"), repro.WithAlpha(0.01))
//	res, err := repro.Backbone(g, repro.WithTopK(500))   // size-matched NC
//
// Backbone never cancels; use BackboneContext to bound a run.
func Backbone(g *Graph, opts ...Option) (*Result, error) {
	return BackboneContext(context.Background(), g, opts...)
}

// BackboneContext is Backbone under a context: scoring checks ctx
// between checkpoint ranges (a few thousand edges per worker) and
// returns ctx.Err() promptly after cancellation or deadline expiry.
// Combine with WithProgress to observe long runs:
//
//	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
//	defer cancel()
//	res, err := repro.BackboneContext(ctx, g, repro.WithMethod("nc"), repro.WithParallel())
func BackboneContext(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	c, m, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.scores != nil && c.scores.G != g {
		return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "precomputed table belongs to a different graph"}
	}
	so := filter.ScoreOpts{Parallel: c.parallel, Progress: c.progress}
	start := time.Now()
	scores := c.scores
	if c.dirtySet {
		if scores != nil {
			return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "WithScores and WithDirtyScores are mutually exclusive"}
		}
		if c.dirty.For != g {
			return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "dirty record describes a different graph"}
		}
		if scores, _, err = filter.RescoreDirty(ctx, m, c.dirtyOld, c.dirty, so); err != nil {
			return nil, err
		}
	}
	var bb *Graph
	var params filter.Params
	switch {
	case c.topKSet || c.fracSet:
		if !m.CanScore() {
			return nil, fmt.Errorf("repro: method %q has a fixed backbone size and does not support top-k pruning: %w", m.Name, filter.ErrNoScorer)
		}
		params, err = m.Resolve(c.params)
		if err != nil {
			return nil, err
		}
		if scores == nil {
			if scores, err = m.ScoreCtx(ctx, g, so); err != nil {
				return nil, err
			}
		}
		if c.topKSet {
			bb = scores.TopK(c.topK)
		} else {
			bb = scores.TopFraction(c.topFrac)
		}
	case scores != nil:
		if m.Cut == nil {
			return nil, fmt.Errorf("repro: method %q has no threshold rule to prune a precomputed table: %w", m.Name, filter.ErrNoScorer)
		}
		params, err = m.Resolve(c.params)
		if err != nil {
			return nil, err
		}
		bb = scores.Threshold(m.Cut(params))
	default:
		bb, scores, params, err = m.BackboneScoredCtx(ctx, g, c.params, so)
		if err != nil {
			return nil, err
		}
	}
	res := &Result{
		Method:   m.Name,
		Title:    m.Title,
		Params:   params,
		Backbone: bb,
		Scores:   scores,
		Duration: time.Since(start),
	}
	if n := g.NumConnected(); n > 0 {
		res.NodeCoverage = float64(bb.NumConnected()) / float64(n)
	}
	if e := g.NumEdges(); e > 0 {
		res.EdgeCoverage = float64(bb.NumEdges()) / float64(e)
	}
	return res, nil
}

// Score computes the selected method's per-edge significance table
// without pruning; prune the returned table with its Threshold, TopK
// or TopFraction. Pruning options (WithTopK, WithTopFraction) are an
// error here, as are extract-only methods (mst).
//
//	s, err := repro.Score(g, repro.WithMethod("hss"))
//
// Score never cancels; use ScoreContext to bound a run.
func Score(g *Graph, opts ...Option) (*Scores, error) {
	return ScoreContext(context.Background(), g, opts...)
}

// ScoreContext is Score under a context, with the same cancellation
// semantics as BackboneContext.
func ScoreContext(ctx context.Context, g *Graph, opts ...Option) (*Scores, error) {
	c, m, err := scoreConfig(opts)
	if err != nil {
		return nil, err
	}
	so := filter.ScoreOpts{Parallel: c.parallel, Progress: c.progress}
	if c.dirtySet {
		if c.scores != nil {
			return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "WithScores and WithDirtyScores are mutually exclusive"}
		}
		if c.dirty.For != g {
			return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "dirty record describes a different graph"}
		}
		s, _, err := filter.RescoreDirty(ctx, m, c.dirtyOld, c.dirty, so)
		return s, err
	}
	return m.ScoreCtx(ctx, g, so)
}

// ValidateScore runs the option checks Score makes before any work and
// returns the error Score would return for opts, or nil: an unknown
// method or parameter, or a pruning option. A server that answers Score
// from a cached table calls it to reject exactly what Score rejects.
func ValidateScore(opts ...Option) error {
	_, _, err := scoreConfig(opts)
	return err
}

// scoreConfig resolves Score's options. Pruning is a *ParamError, since
// a table is never pruned; an undeclared parameter is one too, because
// although parameters never change the table, naming one the method
// lacks is a caller bug.
func scoreConfig(opts []Option) (*config, *Method, error) {
	c, m, err := resolve(opts)
	if err != nil {
		return nil, nil, err
	}
	if c.topKSet || c.fracSet {
		param := "top"
		if !c.topKSet {
			param = "frac"
		}
		return nil, nil, &ParamError{Method: m.Name, Param: param,
			Reason: "Score returns the full table; prune with Backbone's WithTopK/WithTopFraction or the table's own TopK"}
	}
	if _, err := m.Resolve(c.params); err != nil {
		return nil, nil, err
	}
	return c, m, nil
}

// BackboneAll runs several methods concurrently on the same graph and
// returns their results in the order the methods were given — the
// paper's protocol of comparing algorithms at identical backbone sizes:
//
//	results, err := repro.BackboneAll(g, []string{"nc", "df", "mst"}, repro.WithTopK(500))
//
// A nil or empty methods slice runs every registered method. Shared
// options apply to each method; parameters a method does not declare
// are skipped (so WithDelta can ride along with df) as long as at
// least one selected method declares them, and WithTopK /
// WithTopFraction are ignored for methods that cannot rank edges
// (mst), since the paper plots those as single points.
//
// Invalid input — an unknown method name, a parameter no selected
// method declares — errors before any work starts. A method failing
// at runtime (e.g. the doubly stochastic transformation not existing
// for this graph) does not abort the others: its Result carries the
// failure in Err with a nil Backbone, matching the "n/a" cells of the
// paper's tables.
func BackboneAll(g *Graph, methods []string, opts ...Option) ([]*Result, error) {
	return BackboneAllContext(context.Background(), g, methods, opts...)
}

// BackboneAllContext is BackboneAll under a context. Cancellation
// propagates into every per-method goroutine: in-flight scoring stops
// at the next checkpoint and the affected results carry ctx.Err() in
// their Err field. The method slice and ordering semantics are those
// of BackboneAll.
func BackboneAllContext(ctx context.Context, g *Graph, methods []string, opts ...Option) ([]*Result, error) {
	if len(methods) == 0 {
		for _, m := range Methods() {
			methods = append(methods, m.Name)
		}
	}
	// Validate up front so typos fail before any work starts: every
	// method name must resolve, and every shared parameter must be
	// declared by at least one of the selected methods (a parameter no
	// method knows is a misspelling, not a ride-along).
	var selected []*Method
	for _, name := range methods {
		m, err := filter.Lookup(name)
		if err != nil {
			return nil, err
		}
		selected = append(selected, m)
	}
	probe := &config{}
	for _, o := range opts {
		o(probe)
	}
	if probe.err != nil {
		return nil, probe.err
	}
	// Sorted order pins which undeclared parameter the error names.
	for _, name := range probe.params.Names() {
		declared := false
		for _, m := range selected {
			if _, ok := m.Param(name); ok {
				declared = true
				break
			}
		}
		if !declared {
			return nil, &ParamError{Param: name, Reason: "no selected method declares this parameter", Err: ErrUnknownParam}
		}
	}
	results := make([]*Result, len(methods))
	var wg sync.WaitGroup
	for i, m := range selected {
		wg.Add(1)
		go func(i int, m *Method) {
			defer wg.Done()
			runOpts := append([]Option{}, opts...)
			runOpts = append(runOpts, WithMethod(m.Name), func(c *config) {
				c.lenient = true
				if (c.topKSet || c.fracSet) && !m.CanScore() {
					c.topKSet, c.fracSet = false, false
				}
			})
			res, err := BackboneContext(ctx, g, runOpts...)
			if err != nil {
				res = &Result{Method: m.Name, Title: m.Title, Err: err}
			}
			results[i] = res
		}(i, m)
	}
	wg.Wait()
	return results, nil
}

// MethodsTable renders the registered methods and their parameters as
// a GitHub-flavored markdown table — the README's method table is this
// function's output.
func MethodsTable() string {
	out := "| Method | Name | Parameters | Parallel | Description |\n|---|---|---|---|---|\n"
	for _, m := range Methods() {
		params := "—"
		if len(m.Params) > 0 {
			params = ""
			for i, p := range m.Params {
				if i > 0 {
					params += ", "
				}
				if p.Integer {
					params += fmt.Sprintf("`%s=%d`", p.Name, int(p.Default))
				} else {
					params += fmt.Sprintf("`%s=%g`", p.Name, p.Default)
				}
			}
		}
		parallel := "—"
		if m.ParallelScorer != nil {
			parallel = "✓"
		}
		out += fmt.Sprintf("| `%s` | %s | %s | %s | %s |\n", m.Name, m.Title, params, parallel, m.Desc)
	}
	return out
}
