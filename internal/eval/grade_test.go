package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
)

// gradeOracle is the engine as it graded before selections: every
// method's backbone is built as a Graph through the one cut rule and
// measured with the criteria functions directly. cached marks a run
// whose ScoreSource serves every table from its cache.
func gradeOracle(t *testing.T, g *graph.Graph, cfg Config, sizeMatched, cached bool) *Report {
	t.Helper()
	ctx := context.Background()
	target := 0
	if sizeMatched {
		target = int(0.1*float64(g.NumEdges()) + 0.5)
	}
	r2Full := math.NaN()
	if cfg.Designer != nil {
		yF, xF, err := cfg.Designer.Design(cfg.Dataset, g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		fit, err := stats.OLS(yF, xF...)
		if err != nil {
			t.Fatal(err)
		}
		r2Full = fit.R2
	}
	rep := &Report{Nodes: g.NumNodes(), Edges: g.NumEdges(), SizeMatched: sizeMatched, TargetEdges: target}
	for _, m := range filter.All() {
		nan := Float(math.NaN())
		me := &MethodEval{
			Method: m.Name, Title: m.Title,
			EdgeShare: nan, Coverage: nan, Stability: nan, Recovery: nan, Quality: nan, Composite: nan,
		}
		rep.Methods = append(rep.Methods, me)
		params, err := m.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		me.Params = params
		k := -1
		if sizeMatched && m.CanScore() && !m.FixedSize {
			k = target
		}
		if m.NeedsTable(k >= 0) {
			me.scored = true
			me.ScoreCached = cached
		}
		sel, _, err := m.BackboneCtx(ctx, g, params, k, nil, nil)
		if err != nil {
			me.Err = err.Error()
			continue
		}
		bb := sel.Graph()
		me.Edges = bb.NumEdges()
		if e := g.NumEdges(); e > 0 {
			me.EdgeShare = Float(float64(bb.NumEdges()) / float64(e))
		}
		me.Coverage = Float(Coverage(g, bb.All()))
		if cfg.Next != nil {
			me.Stability = Float(Stability(bb, cfg.Next))
		}
		if cfg.Truth != nil {
			me.Recovery = Float(Recovery(bb, cfg.Truth))
		}
		if cfg.Designer != nil {
			me.Quality = Float(quality(cfg.Designer, cfg.Dataset, g, bb, r2Full))
		}
		me.Composite = composite(me)
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
	return rep
}

// reportJSON marshals a report with its wall-clock fields cleared.
func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	rep.DurationMs = 0
	for _, me := range rep.Methods {
		me.DurationMs = 0
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// caches returns a ScoreSource and an ExtractSource memoizing g's
// tables and extractions, as the backboned daemon's score cache does.
func caches(g *graph.Graph) (ScoreSource, ExtractSource) {
	var mu sync.Mutex
	tables := map[string]*filter.Scores{}
	backbones := map[string]graph.Selection{}
	score := func(ctx context.Context, m *filter.Method) (*filter.Scores, bool, error) {
		mu.Lock()
		s, ok := tables[m.Name]
		mu.Unlock()
		if ok {
			return s, true, nil
		}
		s, err := m.ScoreCtx(ctx, g, filter.ScoreOpts{})
		if err != nil {
			return nil, false, err
		}
		mu.Lock()
		tables[m.Name] = s
		mu.Unlock()
		return s, false, nil
	}
	extract := func(ctx context.Context, m *filter.Method) (graph.Selection, bool, error) {
		mu.Lock()
		sel, ok := backbones[m.Name]
		mu.Unlock()
		if ok {
			return sel, true, nil
		}
		sel, _, err := m.BackboneCtx(ctx, g, nil, -1, nil, nil)
		if err != nil {
			return graph.Selection{}, false, err
		}
		mu.Lock()
		backbones[m.Name] = sel
		mu.Unlock()
		return sel, false, nil
	}
	return score, extract
}

// directedTwin rebuilds g as a directed graph over the same node ids
// plus a few isolates: each edge keeps its orientation and about half
// also get a reverse arc with another weight.
func directedTwin(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(true)
	b.AddNodes(g.NumNodes() + 3)
	for _, e := range g.Edges() {
		b.MustAddEdge(int(e.Src), int(e.Dst), e.Weight)
		if rng.Intn(2) == 0 {
			b.MustAddEdge(int(e.Dst), int(e.Src), 1+float64(rng.Intn(30)))
		}
	}
	return b.Build()
}

// perturbed returns a t+1 observation of g over the same node ids:
// weights jittered, a fifth of the edges gone, a few new ones.
func perturbed(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.Directed())
	b.AddNodes(g.NumNodes())
	for _, e := range g.Edges() {
		if rng.Float64() < 0.2 {
			continue
		}
		b.MustAddEdge(int(e.Src), int(e.Dst), e.Weight*(0.5+rng.Float64()))
	}
	for i := 0; i < g.NumNodes()/4; i++ {
		u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
		if u != v {
			b.MustAddEdge(u, v, 1+float64(rng.Intn(10)))
		}
	}
	return b.Build()
}

// TestEvalGradesFromSelectionBitIdentical pins the engine's grading
// from selections — size and coverage read off the kept edge ids, the
// backbone built only for the criteria that join it against another
// graph — to the graph-built grading of gradeOracle, report JSON byte
// for byte. It covers every registered method (hss and mst symmetrize
// directed input) on ER and BA graphs, undirected and directed, in
// both Evaluate and Compare, with and without the next-snapshot,
// ground-truth and quality inputs, and with no sources, cold caching
// sources and the same sources warm.
func TestEvalGradesFromSelectionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type fixture struct {
		name string
		g    *graph.Graph
	}
	var graphs []fixture
	for i := 0; i < 2; i++ {
		er := gen.ErdosRenyiGNM(rng, 60+rng.Intn(40), 200+rng.Intn(200))
		ba := gen.BarabasiAlbert(rng, 60+rng.Intn(40), 2)
		graphs = append(graphs,
			fixture{fmt.Sprintf("er%d", i), er},
			fixture{fmt.Sprintf("ba%d", i), ba},
			fixture{fmt.Sprintf("er%d-directed", i), directedTwin(rng, er)},
			fixture{fmt.Sprintf("ba%d-directed", i), directedTwin(rng, ba)},
		)
	}
	edgeless := graph.NewBuilder(false)
	edgeless.AddNodes(4)
	graphs = append(graphs, fixture{"edgeless", edgeless.Build()})

	for _, f := range graphs {
		g := f.g
		full := Config{
			Next:  perturbed(rng, g),
			Truth: g.FilterEdges(func(int, graph.Edge) bool { return rng.Float64() < 0.3 }),
		}
		if g.NumEdges() > 0 {
			// The full fit needs observations; without any the run fails.
			full.Designer, full.Dataset = mockDesigner{}, "test"
		}
		for _, inputs := range []struct {
			name string
			cfg  Config
		}{{"plain", Config{}}, {"criteria", full}} {
			for _, sizeMatched := range []bool{false, true} {
				run := Evaluate
				if sizeMatched {
					run = Compare
				}
				score, extract := caches(g)
				for _, src := range []struct {
					name   string
					cached bool
					set    func(*Config)
				}{
					{"direct", false, func(*Config) {}},
					{"cold sources", false, func(c *Config) { c.Source, c.Extract = score, extract }},
					{"warm sources", true, func(c *Config) { c.Source, c.Extract = score, extract }},
				} {
					cfg := inputs.cfg
					src.set(&cfg)
					rep, err := run(context.Background(), g, cfg)
					if err != nil {
						t.Fatalf("%s %s sizeMatched=%v %s: %v", f.name, inputs.name, sizeMatched, src.name, err)
					}
					got := reportJSON(t, rep)
					want := reportJSON(t, gradeOracle(t, g, inputs.cfg, sizeMatched, src.cached))
					if !bytes.Equal(got, want) {
						t.Errorf("%s %s sizeMatched=%v %s:\n got %s\nwant %s", f.name, inputs.name, sizeMatched, src.name, got, want)
					}
				}
			}
		}
	}
}
