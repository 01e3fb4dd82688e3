package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/filter"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Fig9Config parameterizes the scalability experiment (Section V-G).
type Fig9Config struct {
	Seed int64
	// NodeCounts are the Erdős–Rényi sizes to time (average degree 3).
	NodeCounts []int
	// Reps averages each timing over this many runs.
	Reps int
	// MaxExpensiveEdges caps the sizes HSS and DS are run on — the paper
	// "could not run them on networks larger than a few thousand edges".
	MaxExpensiveEdges int
}

// DefaultFig9Config uses sizes that finish in seconds on a laptop while
// still exposing the scaling exponents.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Seed:              9,
		NodeCounts:        []int{25_000, 50_000, 100_000, 200_000, 400_000, 800_000},
		Reps:              3,
		MaxExpensiveEdges: 5_000,
	}
}

// Fig9Result holds seconds per (method, size).
type Fig9Result struct {
	Cfg     Fig9Config
	Methods []*filter.Method
	Edges   []int
	// Seconds[methodName][sizeIdx]; NaN where the method was skipped.
	Seconds map[string][]float64
	// Exponent[methodName] is the fitted slope of log(time) vs
	// log(edges) — the paper estimates ~1.14 for its NC implementation.
	Exponent map[string]float64
	// BuildSeconds[sizeIdx] times the graph substrate itself: rebuilding
	// the CSR graph from its canonical edge list (sort + merge + CSR
	// assembly). The engine-speed floor under every method.
	BuildSeconds []float64
	// ExtractSeconds[sizeIdx] times backbone extraction alone: pruning a
	// precomputed NC score table to its top 10% of edges (selection +
	// subgraph assembly, no scoring).
	ExtractSeconds []float64
}

// Fig9 times every method on growing Erdős–Rényi graphs, checking the
// context between sizes and between methods so Ctrl-C lands promptly
// even mid-sweep.
func Fig9(ctx context.Context, cfg Fig9Config) (*Fig9Result, error) {
	res := &Fig9Result{
		Cfg:      cfg,
		Methods:  Methods(),
		Seconds:  map[string][]float64{},
		Exponent: map[string]float64{},
	}
	for _, m := range res.Methods {
		res.Seconds[m.Name] = make([]float64, len(cfg.NodeCounts))
		for i := range res.Seconds[m.Name] {
			res.Seconds[m.Name][i] = math.NaN()
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for si, n := range cfg.NodeCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mEdges := n * 3 / 2 // average degree 3
		g := gen.ErdosRenyiGNM(rng, n, mEdges)
		res.Edges = append(res.Edges, g.NumEdges())
		build, extract, err := timeBuildExtract(ctx, g, cfg.Reps)
		if err != nil {
			return nil, err
		}
		res.BuildSeconds = append(res.BuildSeconds, build)
		res.ExtractSeconds = append(res.ExtractSeconds, extract)
		for _, m := range res.Methods {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			expensive := m.Name == "hss" || m.Name == "ds"
			if expensive && g.NumEdges() > cfg.MaxExpensiveEdges {
				continue
			}
			var total time.Duration
			ok := true
			for rep := 0; rep < cfg.Reps; rep++ {
				start := time.Now()
				if _, err := BackboneWithShare(ctx, m, g, 0.1); err != nil {
					ok = false
					break
				}
				total += time.Since(start)
			}
			if ok {
				res.Seconds[m.Name][si] = total.Seconds() / float64(cfg.Reps)
			}
		}
	}
	// Fit scaling exponents where at least three sizes were timed.
	for _, m := range res.Methods {
		var lx, ly []float64
		for si, s := range res.Seconds[m.Name] {
			if s == s && s > 0 {
				lx = append(lx, math.Log(float64(res.Edges[si])))
				ly = append(ly, math.Log(s))
			}
		}
		if len(lx) >= 3 {
			res.Exponent[m.Name] = slope(lx, ly)
		} else {
			res.Exponent[m.Name] = math.NaN()
		}
	}
	return res, nil
}

// timeBuildExtract times the two engine primitives under every method:
// rebuilding the graph from its canonical edge list, and pruning a
// precomputed NC score table to a top-10% backbone. Both are averaged
// over reps runs.
func timeBuildExtract(ctx context.Context, g *graph.Graph, reps int) (build, extract float64, err error) {
	if reps < 1 {
		reps = 1
	}
	m, err := filter.Lookup("nc")
	if err != nil {
		return 0, 0, err
	}
	s, err := m.ScoreCtx(ctx, g, filter.ScoreOpts{})
	if err != nil {
		return 0, 0, err
	}
	var tBuild, tExtract time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		graph.FromEdges(g.Directed(), g.NumNodes(), g.Edges())
		tBuild += time.Since(start)

		start = time.Now()
		s.TopFraction(0.1)
		tExtract += time.Since(start)
	}
	return tBuild.Seconds() / float64(reps), tExtract.Seconds() / float64(reps), nil
}

// slope returns the OLS slope of y on x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Table renders the timing grid with fitted exponents.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:  "Figure 9 — Running time scalability (seconds)",
		Header: []string{"edges"},
	}
	for _, m := range r.Methods {
		t.Header = append(t.Header, m.Name)
	}
	t.Header = append(t.Header, "build", "extract")
	for si, e := range r.Edges {
		row := []string{fmt.Sprintf("%d", e)}
		for _, m := range r.Methods {
			v := r.Seconds[m.Name][si]
			if v != v {
				row = append(row, "skip")
			} else {
				row = append(row, fmt.Sprintf("%.4f", v))
			}
		}
		row = append(row,
			fmt.Sprintf("%.4f", r.BuildSeconds[si]),
			fmt.Sprintf("%.4f", r.ExtractSeconds[si]))
		t.AddRow(row...)
	}
	expRow := []string{"exponent"}
	for _, m := range r.Methods {
		expRow = append(expRow, f3(r.Exponent[m.Name]))
	}
	expRow = append(expRow, "—", "—")
	t.AddRow(expRow...)
	t.Notes = append(t.Notes,
		"paper: NC scales ~O(|E|^1.14), indistinguishable from NT and DF up to a constant;",
		"HSS and DS become impractical beyond a few thousand edges and are skipped there;",
		"build = CSR graph assembly from the canonical edge list, extract = top-10% NC pruning")
	return t
}
