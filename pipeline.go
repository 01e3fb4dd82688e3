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
	scores    *Scores
	dirtyOld  *Scores
	dirty     graph.Dirty
	dirtySet  bool
	progress  func(done, total int)
	lenient   bool // skip params the method does not declare (BackboneAll)
	err       error

	// The sources of a cut's table and extraction; see eval.go.
	scoreSource   ScoreSource
	extractSource ExtractSource

	// Evaluation-only options (EvaluateContext / CompareContext); see
	// eval.go. resolve rejects them on the single-method pipeline.
	evalMethods     []string
	evalNext        *Graph
	evalTruth       *Graph
	evalDesigner    Designer
	evalDataset     string
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

// WithParallel is ignored.
//
// Deprecated: scoring picks its worker count from the table size — one
// worker below 4096 edges, GOMAXPROCS from there on, for every method
// whose rows score independently (nc, df, nt, nc-binomial) — and the
// table is bit-identical either way, so there is nothing to request.
func WithParallel() Option {
	return func(*config) {}
}

// WithScores supplies a precomputed significance table: Backbone skips
// scoring and goes straight to pruning, and Score returns the table
// itself. The table must belong to the same *Graph value (enforced, in
// both), and must have been produced by the selected method — that
// pairing is the caller's contract and is not checked: Scores.Method
// is the scorer's own name, which need not be the registry entry's
// (nt's scorer is "naive"). Method parameters (delta, alpha, ...)
// still apply: they only move the pruning threshold, never the table
// itself.
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
// computed for dirty.Base by the same method. When dirty.Exclusive is
// set the run consumes old, even if it fails. Mutually exclusive with
// WithScores and the sources.
func WithDirtyScores(old *Scores, dirty Dirty) Option {
	return func(c *config) { c.dirtyOld, c.dirty, c.dirtySet = old, dirty, true }
}

// WithProgress registers a callback for long runs: fn is invoked after
// every scored checkpoint range (a few thousand edges) with the
// cumulative number of scored edges and the total. Whenever the table
// has 4096 edges or more and GOMAXPROCS > 1, scoring runs on several
// worker goroutines that call fn concurrently, and BackboneAll
// interleaves the progress of its methods, so fn must be safe for
// concurrent use.
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
	// Backbone is the extracted subgraph (full node set preserved);
	// nil on results from SelectContext.
	Backbone *Graph
	// Scores is the significance table the backbone was pruned from;
	// nil when the method extracts directly (mst, and ds without TopK).
	Scores *Scores
	// Duration is the wall time of scoring plus selecting the kept
	// edges; building Backbone is not part of it.
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
	if r.Backbone == nil { // a SelectContext result
		return fmt.Sprintf("%s: %.1f%% node coverage, %.1f%% edges, %v",
			r.Method, 100*r.NodeCoverage, 100*r.EdgeCoverage, r.Duration.Round(time.Microsecond))
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
	sourced := c.scoreSource != nil || c.extractSource != nil
	if c.scores != nil && c.dirtySet || (c.scores != nil || c.dirtySet) && sourced {
		return nil, nil, &ParamError{Method: m.Name, Param: "scores",
			Reason: "WithScores, WithDirtyScores and the score and extract sources are mutually exclusive"}
	}
	if c.lenient {
		c.params = m.Declared(c.params)
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
//	res, err := repro.BackboneContext(ctx, g, repro.WithMethod("nc"))
func BackboneContext(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	res, sel, err := cut(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	res.Backbone = sel.Graph()
	res.setCoverage(g, res.Backbone.NumConnected(), res.Backbone.NumEdges())
	return res, nil
}

// SelectContext is BackboneContext without building the backbone: it
// returns the edges the cut keeps as a selection over the input (or,
// for methods that symmetrize directed input, over its undirected
// view), and a Result with every field but Backbone filled in. Write
// the selection with WriteSelection, or build it with its Graph method;
// both give exactly what BackboneContext's Backbone gives.
func SelectContext(ctx context.Context, g *Graph, opts ...Option) (*Result, Selection, error) {
	res, sel, err := cut(ctx, g, opts)
	if err != nil {
		return nil, Selection{}, err
	}
	res.setCoverage(g, sel.NumConnected(), sel.Len())
	return res, sel, nil
}

// cut is the run BackboneContext and SelectContext share: resolve the
// options, hand Method.BackboneCtx whatever supplies the table or the
// extraction, and select the kept edges.
// The coverage fields are left to the caller, which counts the kept
// nodes on whatever it holds: a built backbone knows its count already.
func cut(ctx context.Context, g *Graph, opts []Option) (*Result, Selection, error) {
	c, m, err := resolve(opts)
	if err != nil {
		return nil, Selection{}, err
	}
	table, err := c.table(ctx, g, m)
	if err != nil {
		return nil, Selection{}, err
	}
	var extract func() (Selection, error)
	if c.extractSource != nil {
		extract = func() (Selection, error) {
			sel, _, err := c.extractSource(ctx, m)
			return sel, err
		}
	}
	k := -1 // the method's own Cut rule
	switch {
	case c.topKSet:
		k = c.topK
	case c.fracSet:
		k = int(c.topFrac*float64(g.NumEdges()) + 0.5) // as Scores.TopFraction rounds
	}
	if k >= 0 && !m.CanScore() {
		return nil, Selection{}, fmt.Errorf("repro: method %q has a fixed backbone size and does not support top-k pruning: %w", m.Name, filter.ErrNoScorer)
	}
	if k < 0 && (c.scores != nil || c.dirtySet) && m.Cut == nil {
		return nil, Selection{}, fmt.Errorf("repro: method %q has no threshold rule to prune a precomputed table: %w", m.Name, filter.ErrNoScorer)
	}
	params, err := m.Resolve(c.params)
	if err != nil {
		return nil, Selection{}, err
	}
	start := time.Now()
	sel, scores, err := m.BackboneCtx(ctx, g, params, k, table, extract)
	if err != nil {
		return nil, Selection{}, err
	}
	return &Result{
		Method:   m.Name,
		Title:    m.Title,
		Params:   params,
		Scores:   scores,
		Duration: time.Since(start),
	}, sel, nil
}

// setCoverage sets the coverage fields of a run on g from the number of
// edges it kept and of nodes those edges touch.
func (r *Result) setCoverage(g *Graph, nodes, edges int) {
	if n := g.NumConnected(); n > 0 {
		r.NodeCoverage = float64(nodes) / float64(n)
	}
	if e := g.NumEdges(); e > 0 {
		r.EdgeCoverage = float64(edges) / float64(e)
	}
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
// semantics as BackboneContext. The table comes from where Backbone's
// would: WithDirtyScores re-scores the dirty rows, WithScores returns
// its table as is, and a score source serves methods that score.
// Every option check runs before any work or source read. Pruning is a
// *ParamError, since a table is never pruned; an undeclared parameter
// is one too, because although parameters never change the table,
// naming one the method lacks is a caller bug.
func ScoreContext(ctx context.Context, g *Graph, opts ...Option) (*Scores, error) {
	c, m, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.topKSet || c.fracSet {
		param := "top"
		if !c.topKSet {
			param = "frac"
		}
		return nil, &ParamError{Method: m.Name, Param: param,
			Reason: "Score returns the full table; prune with Backbone's WithTopK/WithTopFraction or the table's own TopK"}
	}
	if _, err := m.Resolve(c.params); err != nil {
		return nil, err
	}
	table, err := c.table(ctx, g, m)
	if err != nil {
		return nil, err
	}
	return table()
}

// table picks where a run's table comes from, the one choice Backbone
// and Score share: the re-scoring WithDirtyScores asks for, the
// WithScores table, the score source (for methods that score), or
// scoring g. Each option is checked against g up front; the returned
// supplier does the work when the table is needed.
func (c *config) table(ctx context.Context, g *Graph, m *Method) (func() (*Scores, error), error) {
	so := filter.ScoreOpts{Progress: c.progress}
	switch {
	case c.dirtySet:
		if c.dirty.For != g {
			return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "dirty record describes a different graph"}
		}
		return func() (*Scores, error) {
			s, _, err := filter.RescoreDirty(ctx, m, c.dirtyOld, c.dirty, so)
			return s, err
		}, nil
	case c.scores != nil:
		if c.scores.G != g {
			return nil, &ParamError{Method: m.Name, Param: "scores", Reason: "precomputed table belongs to a different graph"}
		}
		return func() (*Scores, error) { return c.scores, nil }, nil
	case c.scoreSource != nil && m.CanScore():
		return func() (*Scores, error) {
			s, _, err := c.scoreSource(ctx, m)
			return s, err
		}, nil
	}
	return func() (*Scores, error) { return m.ScoreCtx(ctx, g, so) }, nil
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
	probe := &config{}
	for _, o := range opts {
		o(probe)
	}
	if probe.err != nil {
		return nil, probe.err
	}
	// Validate up front so typos fail before any work starts.
	selected, err := filter.Default.Select(methods, probe.params)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(selected))
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
		if _, ok := m.Scorer.(filter.RangeScorer); ok {
			parallel = "✓"
		}
		out += fmt.Sprintf("| `%s` | %s | %s | %s | %s |\n", m.Name, m.Title, params, parallel, m.Desc)
	}
	return out
}
