package filter

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Params maps parameter names to values. Integer-valued parameters
// (Param.Integer) are carried as float64 and truncated at use.
type Params map[string]float64

// Clone returns an independent copy of p.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	//lint:detiter-ok copying into another map; insertion order is irrelevant
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Names returns p's parameter names in sorted order — the canonical
// iteration order, so validation errors and reports do not inherit
// Go's randomized map range order.
func (p Params) Names() []string {
	names := make([]string, 0, len(p))
	//lint:detiter-ok collecting keys only; sorted before use
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Param describes one tunable parameter of a backboning method: its
// flag/option name, default value and meaning. The schema drives CLI
// flag generation and option validation, so adding a parameter to a
// registered method automatically surfaces it everywhere.
type Param struct {
	// Name is the identifier used in options and CLI flags, e.g. "delta".
	Name string
	// Default is the value used when the caller does not set one.
	Default float64
	// Integer marks parameters that only take whole values (e.g. kcore's
	// k); the CLI renders them as integer flags.
	Integer bool
	// Desc is a one-line human meaning, e.g. "significance threshold in
	// standard deviations".
	Desc string
}

// Method is the registry entry unifying the Scorer and Extractor views
// of one backboning algorithm. It carries everything a caller needs to
// run the method without knowing its concrete type: identity,
// documentation, the typed parameter schema, and the pruning rule that
// turns parameters into a canonical Score threshold.
type Method struct {
	// Name is the short identifier used for lookup and on the command
	// line: "nc", "df", "hss", "ds", "mst", "nt", "kcore", "nc-binomial".
	Name string
	// Title is the display name used in tables ("Noise-Corrected").
	Title string
	// Desc is a one-line description with the originating citation.
	Desc string
	// Order fixes the presentation position in Registry.All — the
	// paper's methods keep its presentation order regardless of package
	// init sequence.
	Order int
	// Params is the typed parameter schema. Empty for parameter-free
	// methods (mst, ds).
	Params []Param
	// Scorer computes the per-edge significance table; nil for
	// extract-only methods (mst).
	Scorer Scorer
	// Extractor directly produces a fixed backbone subgraph; nil for
	// threshold-only methods.
	Extractor Extractor
	// FixedSize marks methods whose backbone size cannot be tuned (mst,
	// and ds in its connectivity-stopping form), which appear as single
	// points in the paper's sweep figures.
	FixedSize bool
	// Cut maps resolved parameters to the canonical Score threshold
	// implementing the method's natural pruning rule (nc: δ itself;
	// df: 1−α; nc-binomial: −log10 α; kcore: k−½). Nil when the default
	// backbone comes from Extractor instead.
	Cut func(p Params) float64
	// Delta, when non-nil, declares the method's incremental
	// re-scoring capability — its dirtiness signature (delta.go).
	// Requires Scorer to implement RangeScorer so RescoreDirty can
	// recompute dirty row runs in place; methods that leave it nil get
	// a transparent full-rescore fallback.
	Delta *DeltaScorer
}

// RescoresLocally reports whether RescoreDirty brings m's table forward
// by re-scoring only the rows an update dirtied: m declares a Delta
// capability whose signature is not DirtyGlobal, and its scorer is a
// RangeScorer. Any other method's table is re-scored in full on every
// update.
func (m *Method) RescoresLocally() bool {
	_, ranged := m.Scorer.(RangeScorer)
	return m.Delta != nil && ranged && m.Delta.Dirtiness != DirtyGlobal
}

// Param returns the schema entry with the given name.
func (m *Method) Param(name string) (Param, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Defaults returns the method's parameters at their default values.
func (m *Method) Defaults() Params {
	p := make(Params, len(m.Params))
	for _, d := range m.Params {
		p[d.Name] = d.Default
	}
	return p
}

// Resolve merges overrides into the method's defaults. Overrides the
// schema does not declare are an error — passing delta to mst is a
// caller bug, not something to ignore silently.
func (m *Method) Resolve(overrides Params) (Params, error) {
	p := m.Defaults()
	// Sorted order pins which override a multi-error input is reported
	// for, keeping the failure deterministic.
	for _, name := range overrides.Names() {
		if _, ok := m.Param(name); !ok {
			return nil, &ParamError{
				Method: m.Name,
				Param:  name,
				Reason: fmt.Sprintf("not declared by this method (its parameters: %v)", m.paramNames()),
				Err:    ErrUnknownParam,
			}
		}
		p[name] = overrides[name]
	}
	return p, nil
}

// paramNames lists the schema's parameter names for error messages.
func (m *Method) paramNames() []string {
	names := make([]string, len(m.Params))
	for i, p := range m.Params {
		names[i] = p.Name
	}
	return names
}

// CanScore reports whether the method produces a Scores table, i.e.
// supports ranked (top-k) pruning.
func (m *Method) CanScore() bool { return m.Scorer != nil }

// ScoreOpts bundles the cross-cutting controls of one scoring run
// besides its context. The zero value scores with no reporting.
type ScoreOpts struct {
	// Progress, when non-nil, is called after every scored checkpoint
	// range with the cumulative number of scored edges and the total.
	// Tables of 4096 rows or more are scored by GOMAXPROCS workers,
	// which invoke it concurrently.
	Progress func(done, total int)
}

// Score computes the method's significance table.
func (m *Method) Score(g *graph.Graph) (*Scores, error) {
	return m.ScoreCtx(context.Background(), g, ScoreOpts{})
}

// ScoreCtx is Score under a context: scoring checks ctx between
// checkpoint ranges (see Checkpoint) and returns ctx.Err() when the
// context is cancelled, leaving the partial table behind. A RangeScorer
// (nc, df, nt, nc-binomial) scores its rows on one worker below
// parallelMinEdges and on GOMAXPROCS workers from there on — the rows
// are independent, so the table is the same either way. Scorers that do
// not decompose into ranges (hss, ds) run to completion and honor the
// context only at their boundaries.
func (m *Method) ScoreCtx(ctx context.Context, g *graph.Graph, o ScoreOpts) (*Scores, error) {
	if m.Scorer == nil {
		return nil, fmt.Errorf("filter: method %q: %w", m.Name, ErrNoScorer)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rs, ok := m.Scorer.(RangeScorer); ok {
		workers := 1
		if g.NumEdges() >= parallelMinEdges {
			workers = 0 // GOMAXPROCS
		}
		return scoreRangesCtx(ctx, rs, g, workers, o.Progress)
	}
	out, err := m.Scorer.Scores(g)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// NeedsTable reports whether cutting the method's backbone reads a
// Scores table: a ranked (top-k) cut does whenever the method scores,
// a native cut only when the method has a Cut rule. Otherwise the
// backbone comes from the Extractor (mst; ds without top-k).
func (m *Method) NeedsTable(ranked bool) bool {
	return m.Scorer != nil && (ranked || m.Cut != nil)
}

// BackboneCtx is the one cut every entry point shares, and the one
// place that decides what a cut reads: with k ≥ 0 it keeps the k
// top-ranked rows, with k < 0 it applies Cut(p), and a method without a
// Cut runs its Extractor instead. p holds resolved parameters (see
// Resolve). When NeedsTable reports a table is cut, table supplies it —
// a cache, a precomputed or an incrementally re-scored table; nil means
// ScoreCtx. Otherwise extract supplies the extracted backbone — a cache
// of the Extractor's output; nil runs the Extractor. At most one of the
// two is called. The backbone comes back as a selection over the
// table's graph — g, its undirected view for methods that symmetrize
// directed input (hss), or the content-identical graph a cache scored —
// or, on the extractor path, as every edge of the extracted graph, in
// which case the returned table is nil. The extractor path checks ctx
// before extracting, since an Extractor cannot be interrupted.
func (m *Method) BackboneCtx(ctx context.Context, g *graph.Graph, p Params, k int, table func() (*Scores, error), extract func() (graph.Selection, error)) (graph.Selection, *Scores, error) {
	if k >= 0 && m.Scorer == nil {
		return graph.Selection{}, nil, fmt.Errorf("filter: method %q: %w", m.Name, ErrNoScorer)
	}
	if m.NeedsTable(k >= 0) {
		if table == nil {
			table = func() (*Scores, error) { return m.ScoreCtx(ctx, g, ScoreOpts{}) }
		}
		s, err := table()
		if err != nil {
			return graph.Selection{}, nil, err
		}
		if k >= 0 {
			return s.SelectTop(k), s, nil
		}
		return s.Select(m.Cut(p)), s, nil
	}
	if m.Extractor == nil {
		return graph.Selection{}, nil, fmt.Errorf("filter: method %q has neither a pruning rule nor an extractor", m.Name)
	}
	if err := ctx.Err(); err != nil {
		return graph.Selection{}, nil, err
	}
	if extract != nil {
		sel, err := extract()
		return sel, nil, err
	}
	bb, err := m.Extractor.Extract(g)
	if err != nil {
		return graph.Selection{}, nil, err
	}
	return bb.All(), nil, nil
}

// Declared keeps only the parameters of p the method declares — the
// ride-along rule that lets one shared option set (WithDelta next to
// df) drive several methods.
func (m *Method) Declared(p Params) Params {
	kept := Params{}
	//lint:detiter-ok filtering into another map; the kept set is order-independent
	for name, v := range p {
		if _, ok := m.Param(name); ok {
			kept[name] = v
		}
	}
	return kept
}

// reservedParams are names claimed by the shared pipeline/CLI options
// (method selection, top-k pruning, I/O); a parameter schema reusing
// one would collide with the generated CLI flags, so registration
// rejects them up front — the collision then surfaces as a clear error
// in any test run of the registering package instead of a flag-redefine
// panic in the CLI.
var reservedParams = map[string]bool{
	"method": true, "top": true, "frac": true, "parallel": true,
	"directed": true, "o": true, "list": true, "help": true,
	"format": true, "outformat": true,
	"eval": true, "methods": true, "next": true, "response": true,
}

// validate checks a Method for registration.
func (m *Method) validate() error {
	if m == nil || m.Name == "" {
		return fmt.Errorf("filter: method must have a name")
	}
	if m.Scorer == nil && m.Extractor == nil {
		return fmt.Errorf("filter: method %q has neither scorer nor extractor", m.Name)
	}
	if m.Cut != nil && m.Scorer == nil {
		return fmt.Errorf("filter: method %q has a threshold rule but no scorer", m.Name)
	}
	if m.Scorer != nil && m.Cut == nil && m.Extractor == nil {
		return fmt.Errorf("filter: scoring method %q needs a threshold rule or an extractor for its default backbone", m.Name)
	}
	seen := make(map[string]bool, len(m.Params))
	for _, p := range m.Params {
		if p.Name == "" {
			return fmt.Errorf("filter: method %q has an unnamed parameter", m.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("filter: method %q declares parameter %q twice", m.Name, p.Name)
		}
		if reservedParams[p.Name] {
			return fmt.Errorf("filter: method %q parameter %q collides with a reserved pipeline option name", m.Name, p.Name)
		}
		seen[p.Name] = true
	}
	if m.Delta != nil {
		if _, ok := m.Scorer.(RangeScorer); !ok {
			return fmt.Errorf("filter: method %q declares a delta capability but its scorer is not a RangeScorer", m.Name)
		}
	}
	return nil
}

// Registry is a concurrency-safe name-indexed collection of Methods.
// The package-level Default registry is the one algorithms self-register
// into; independent registries exist for tests and embedders.
type Registry struct {
	mu      sync.RWMutex
	methods map[string]*Method
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{methods: make(map[string]*Method)}
}

// Register adds a method, rejecting invalid entries and duplicate names.
func (r *Registry) Register(m *Method) error {
	if err := m.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.methods[m.Name]; dup {
		return fmt.Errorf("filter: method %q already registered", m.Name)
	}
	r.methods[m.Name] = m
	return nil
}

// MustRegister is Register that panics on error — for package init.
func (r *Registry) MustRegister(m *Method) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Lookup returns the method registered under name.
func (r *Registry) Lookup(name string) (*Method, error) {
	r.mu.RLock()
	m, ok := r.methods[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("filter: %w %q (known: %v)", ErrUnknownMethod, name, r.Names())
	}
	return m, nil
}

// Select looks up the named methods (empty names: every registered
// method, in All order) and checks the ride-along parameters against
// them: each must be declared by at least one selected method, since a
// parameter no method knows is a misspelling, not a ride-along. Sorted
// order pins which undeclared parameter the error names.
func (r *Registry) Select(names []string, rideAlong Params) ([]*Method, error) {
	if len(names) == 0 {
		names = r.Names()
	}
	selected := make([]*Method, 0, len(names))
	for _, name := range names {
		m, err := r.Lookup(name)
		if err != nil {
			return nil, err
		}
		selected = append(selected, m)
	}
	for _, name := range rideAlong.Names() {
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
	return selected, nil
}

// All returns every registered method sorted by (Order, Name).
func (r *Registry) All() []*Method {
	r.mu.RLock()
	out := make([]*Method, 0, len(r.methods))
	//lint:detiter-ok collecting values only; sorted by (Order, Name) below
	for _, m := range r.methods {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the registered method names in All order.
func (r *Registry) Names() []string {
	ms := r.All()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// Default is the registry the algorithm packages self-register into.
var Default = NewRegistry()

// Register adds a method to the Default registry.
func Register(m *Method) error { return Default.Register(m) }

// MustRegister adds a method to the Default registry, panicking on error.
func MustRegister(m *Method) { Default.MustRegister(m) }

// Lookup finds a method in the Default registry.
func Lookup(name string) (*Method, error) { return Default.Lookup(name) }

// All lists the Default registry's methods in presentation order.
func All() []*Method { return Default.All() }
