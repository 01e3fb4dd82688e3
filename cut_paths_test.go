package repro

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/filter"
	"repro/internal/gen"
)

// TestCutPathsBitIdentical pins the one cut rule, Method.BackboneCtx,
// from every entry point that turns a method into "the backbone of G
// under m": Backbone at the native cut and with WithTopK, BackboneAll,
// the experiment harness's exp.BackboneWithShare, and the evaluation
// engine (Evaluate at the native cut, Compare size-matched) and
// Backbone fed by cold and warm score and extract sources must agree
// byte for byte, for every registered method, on a graph above the
// 4096-edge cutoff (so ranged scorers run on every worker). It also
// pins the documented split — BackboneAll ranks ds like any scorer,
// Compare keeps it at its natural size — and that no path asks for a
// score table when the backbone comes from an extractor, nor for an
// extraction when it is cut from a table.
func TestCutPathsBitIdentical(t *testing.T) {
	// 4997 edges: the 10% share is 499.7 edges, so every size-matched
	// path must round it to the same k = 500.
	g := gen.ErdosRenyiGNM(rand.New(rand.NewSource(16)), 160, 4997)
	if g.NumEdges() <= 4096 {
		t.Fatalf("test graph has %d edges; want more than 4096", g.NumEdges())
	}
	ctx := context.Background()
	const share = 0.1
	k := int(share*float64(g.NumEdges()) + 0.5)

	// The engine asks its ScoreSource for a table only when it cuts one.
	var mu sync.Mutex
	asked := map[string]int{}
	src := func(ctx context.Context, m *Method) (*Scores, bool, error) {
		mu.Lock()
		asked[m.Name]++
		mu.Unlock()
		s, err := m.ScoreCtx(ctx, g, filter.ScoreOpts{})
		return s, false, err
	}
	native, err := BackboneAll(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := BackboneAll(g, nil, WithTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	evaluated, err := Evaluate(g, WithScoreSource(src))
	if err != nil {
		t.Fatal(err)
	}
	compared, err := Compare(g, WithTopFraction(share), WithScoreSource(src))
	if err != nil {
		t.Fatal(err)
	}

	sawDS := false
	for i, m := range Methods() {
		nat, err := Backbone(g, WithMethod(m.Name))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		requireSameBackbone(t, m.Name+" BackboneAll", native[i].Backbone, nat.Backbone)
		requireSameGrade(t, m.Name+" Evaluate", evaluated.Methods[i], nat)

		// What a size-matched comparison cuts: top-k for rankable
		// methods, the natural backbone for fixed-size ones.
		sized := nat
		var top *Result
		if m.CanScore() {
			top, err = Backbone(g, WithMethod(m.Name), WithTopK(k))
			if err != nil {
				t.Fatalf("%s top-k: %v", m.Name, err)
			}
			if top.Backbone.NumEdges() != k {
				t.Errorf("%s: WithTopK(%d) kept %d edges", m.Name, k, top.Backbone.NumEdges())
			}
			requireSameBackbone(t, m.Name+" BackboneAll top-k", ranked[i].Backbone, top.Backbone)
			frac, err := Backbone(g, WithMethod(m.Name), WithTopFraction(share))
			if err != nil {
				t.Fatalf("%s top fraction: %v", m.Name, err)
			}
			requireSameBackbone(t, m.Name+" WithTopFraction", frac.Backbone, top.Backbone)
			if !m.FixedSize {
				sized = top
			}
		} else {
			requireSameBackbone(t, m.Name+" BackboneAll top-k", ranked[i].Backbone, nat.Backbone)
		}
		shared, err := exp.BackboneWithShare(ctx, m, g, share)
		if err != nil {
			t.Fatalf("%s share: %v", m.Name, err)
		}
		requireSameBackbone(t, m.Name+" BackboneWithShare", shared, sized.Backbone)
		requireSameGrade(t, m.Name+" Compare", compared.Methods[i], sized)

		// The documented split: BackboneAll ranks ds to k edges, Compare
		// grades its natural, connectivity-stopping backbone.
		if m.Name == "ds" {
			sawDS = true
			if ranked[i].Err != nil || ranked[i].Backbone.NumEdges() != k {
				t.Errorf("BackboneAll(WithTopK(%d)) ds: %v", k, ranked[i])
			}
			if me := compared.Methods[i]; me.Edges == k || me.Edges != nat.Backbone.NumEdges() {
				t.Errorf("Compare ds kept %d edges; want its natural %d, not k = %d", me.Edges, nat.Backbone.NumEdges(), k)
			}
		}

		// Source-fed cuts, cold then warm, give the same bytes; each reads
		// the table exactly where a table is cut and the extraction
		// exactly where the extractor runs.
		srcs := &countingSources{g: g}
		for _, pass := range []string{"cold", "warm"} {
			fed := func(what string, want *Graph, table bool, opts ...Option) {
				t.Helper()
				scored, extracted := srcs.scored, srcs.extracted
				res, err := Backbone(g, append(opts, WithMethod(m.Name), WithScoreSource(srcs.score), WithExtractSource(srcs.extract))...)
				if err != nil {
					t.Fatalf("%s %s source-fed %s: %v", m.Name, pass, what, err)
				}
				requireSameBackbone(t, m.Name+" "+pass+" source-fed "+what, res.Backbone, want)
				scored, extracted = srcs.scored-scored, srcs.extracted-extracted
				if table && (scored != 1 || extracted != 0) || !table && (scored != 0 || extracted != 1) {
					t.Errorf("%s %s source-fed %s: %d table and %d extraction reads; the cut reads a table: %v",
						m.Name, pass, what, scored, extracted, table)
				}
			}
			fed("native", nat.Backbone, m.NeedsTable(false))
			if top != nil {
				fed("top-k", top.Backbone, true, WithTopK(k))
			}
		}

		// No table on an extractor path, from the engine or directly.
		if !m.NeedsTable(false) {
			if asked[m.Name] != 0 {
				t.Errorf("%s: the engine asked for a table %d times on its extractor path", m.Name, asked[m.Name])
			}
			noTable := func() (*Scores, error) {
				t.Errorf("%s: table requested on its extractor path", m.Name)
				return nil, nil
			}
			if _, _, err := m.BackboneCtx(ctx, g, m.Defaults(), -1, noTable, nil); err != nil {
				t.Fatalf("%s extract: %v", m.Name, err)
			}
		}
	}
	if !sawDS {
		t.Fatal("ds is not registered")
	}
}

// countingSources is a score and an extract source over g that memoize
// tables and extractions by method, as the backboned daemon's score
// cache does, and count the reads of each. Backbone calls it from one
// goroutine.
type countingSources struct {
	g                 *Graph
	tables            map[string]*Scores
	extractions       map[string]Selection
	scored, extracted int
}

func (c *countingSources) score(ctx context.Context, m *Method) (*Scores, bool, error) {
	c.scored++
	if s, ok := c.tables[m.Name]; ok {
		return s, true, nil
	}
	s, err := m.ScoreCtx(ctx, c.g, filter.ScoreOpts{})
	if err != nil {
		return nil, false, err
	}
	if c.tables == nil {
		c.tables = map[string]*Scores{}
	}
	c.tables[m.Name] = s
	return s, false, nil
}

func (c *countingSources) extract(ctx context.Context, m *Method) (Selection, bool, error) {
	c.extracted++
	if sel, ok := c.extractions[m.Name]; ok {
		return sel, true, nil
	}
	sel, _, err := m.BackboneCtx(ctx, c.g, nil, -1, nil, nil)
	if err != nil {
		return Selection{}, false, err
	}
	if c.extractions == nil {
		c.extractions = map[string]Selection{}
	}
	c.extractions[m.Name] = sel
	return sel, false, nil
}

// requireSameBackbone fails unless got and want encode to the same bytes.
func requireSameBackbone(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	var gb, wb bytes.Buffer
	if err := WriteGraph(&gb, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := WriteGraph(&wb, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Errorf("%s: backbone of %d edges differs from the reference's %d", what, got.NumEdges(), want.NumEdges())
	}
}

// requireSameGrade fails unless the engine graded the backbone res holds.
func requireSameGrade(t *testing.T, what string, me *MethodEval, res *Result) {
	t.Helper()
	if me.Err != "" {
		t.Fatalf("%s: %s", what, me.Err)
	}
	if me.Edges != res.Backbone.NumEdges() || math.Float64bits(float64(me.Coverage)) != math.Float64bits(res.NodeCoverage) {
		t.Errorf("%s: %d edges, coverage %v; the pipeline cut %d edges, coverage %v",
			what, me.Edges, float64(me.Coverage), res.Backbone.NumEdges(), res.NodeCoverage)
	}
}
