package exp

import (
	"context"
	"math"

	"repro/internal/eval"
	"repro/internal/filter"
	"repro/internal/stats"
)

// SweepShares is the backbone-size grid of the paper's sweep figures.
var SweepShares = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// SweepResult holds one metric per (network, method, share).
type SweepResult struct {
	Title    string
	Metric   string
	Networks []string
	Methods  []*filter.Method
	Shares   []float64
	// Values[network][methodName][shareIdx]; NaN for infeasible points.
	// Fixed-size methods fill only index 0 (their single operating point).
	Values map[string]map[string][]float64
	// FixedShare[network][methodName] is the actual edge share of
	// parameter-free backbones (MST, DS).
	FixedShare map[string]map[string]float64
}

func newSweepResult(title, metric string) *SweepResult {
	return &SweepResult{
		Title:      title,
		Metric:     metric,
		Methods:    Methods(),
		Shares:     SweepShares,
		Values:     map[string]map[string][]float64{},
		FixedShare: map[string]map[string]float64{},
	}
}

func (r *SweepResult) initNetwork(name string) {
	r.Networks = append(r.Networks, name)
	r.Values[name] = map[string][]float64{}
	r.FixedShare[name] = map[string]float64{}
	for _, m := range r.Methods {
		vals := make([]float64, len(r.Shares))
		for i := range vals {
			vals[i] = math.NaN()
		}
		r.Values[name][m.Name] = vals
	}
}

// shareMethods returns the methods to grade at share index si, with
// their names: every method at the first share, only the size-tunable
// ones after (fixed-size methods are single points in the paper's
// sweeps).
func (r *SweepResult) shareMethods(si int) ([]*filter.Method, []string) {
	var ms []*filter.Method
	var names []string
	for _, m := range r.Methods {
		if m.FixedSize && si > 0 {
			continue
		}
		ms = append(ms, m)
		names = append(names, m.Name)
	}
	return ms, names
}

// Fig7 measures Coverage — the share of originally non-isolated nodes
// the backbone keeps non-isolated — as a function of the share of edges
// kept, per method and network (Section V-D). Each grid point is one
// size-matched eval.Compare run.
func Fig7(ctx context.Context, c *Country) (*SweepResult, error) {
	res := newSweepResult("Figure 7 — Coverage per backbone for varying threshold values", "coverage")
	for _, ds := range c.Datasets {
		res.initNetwork(ds.Name)
		full := ds.Latest()
		for si, share := range res.Shares {
			ms, names := res.shareMethods(si)
			grades, err := eval.Compare(ctx, full, eval.Config{
				Methods: names,
				Frac:    share, FracSet: true,
			})
			if err != nil {
				return nil, err
			}
			for i, me := range grades.Methods {
				if me.Err != "" {
					continue // infeasible (DS n/a): leave NaN
				}
				if ms[i].FixedSize {
					res.FixedShare[ds.Name][me.Method] = float64(me.Edges) / float64(full.NumEdges())
				}
				res.Values[ds.Name][me.Method][si] = float64(me.Coverage)
			}
		}
	}
	return res, nil
}

// Fig8 measures Stability — the Spearman correlation between backbone
// edge weights at t and the same pairs' weights at t+1, averaged over
// consecutive year pairs — as a function of the share of edges kept
// (Section V-F). Each (share, year-pair) cell is one eval.Compare run
// with the next year as the stability snapshot; the cross-year weight
// join runs as a CSR merge-walk inside the engine.
func Fig8(ctx context.Context, c *Country) (*SweepResult, error) {
	res := newSweepResult("Figure 8 — Stability per backbone for varying threshold values", "stability")
	for _, ds := range c.Datasets {
		res.initNetwork(ds.Name)
		for si, share := range res.Shares {
			ms, names := res.shareMethods(si)
			perMethod := map[string][]float64{}
			infeasible := map[string]bool{}
			for yi := 0; yi+1 < len(ds.Years); yi++ {
				grades, err := eval.Compare(ctx, ds.Years[yi], eval.Config{
					Methods: names,
					Frac:    share, FracSet: true,
					Next: ds.Years[yi+1],
				})
				if err != nil {
					return nil, err
				}
				for i, me := range grades.Methods {
					if me.Err != "" {
						// Failing on any year pair leaves the whole cell n/a
						// (a partial-year mean would not be the figure's
						// metric) — the pre-engine drivers did the same.
						infeasible[me.Method] = true
						continue
					}
					if ms[i].FixedSize && yi == 0 {
						res.FixedShare[ds.Name][me.Method] = float64(me.Edges) / float64(ds.Years[yi].NumEdges())
					}
					perMethod[me.Method] = append(perMethod[me.Method], float64(me.Stability))
				}
			}
			for short, vals := range perMethod {
				if infeasible[short] {
					continue // stays NaN
				}
				res.Values[ds.Name][short][si] = stats.MeanNonNaN(vals)
			}
		}
	}
	return res, nil
}

// Table renders a sweep grid: one block of rows per network.
func (r *SweepResult) Table() *Table {
	t := &Table{Title: r.Title, Header: []string{"Network", "share"}}
	for _, m := range r.Methods {
		t.Header = append(t.Header, m.Name)
	}
	for _, net := range r.Networks {
		for si, share := range r.Shares {
			row := []string{net, f3(share)}
			for _, m := range r.Methods {
				if m.FixedSize && si > 0 {
					row = append(row, "")
					continue
				}
				row = append(row, f3(r.Values[net][m.Name][si]))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"mst/ds are parameter-free: reported once, at their own backbone size (n/a where infeasible)")
	return t
}
