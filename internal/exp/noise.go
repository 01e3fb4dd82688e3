package exp

import (
	"context"
	"math"

	"repro/internal/filter"
	"repro/internal/graph"
)

// NoiseResult reports, per method and network, what share of the kept
// edges are known measurement artifacts — a diagnostic the synthetic
// world makes possible because it tracks where it injected noise.
// This experiment has no direct counterpart table in the paper, but it
// quantifies the mechanism behind Table II: methods that retain
// artifacts hand unexplainable observations to the regression.
type NoiseResult struct {
	Networks []string
	Methods  []*filter.Method
	// ArtifactShareKept[method][network] is |kept ∩ spurious| / |kept| —
	// the false-positive side of the tradeoff.
	ArtifactShareKept map[string]map[string]float64
	// RealRecall[method][network] is the share of the network's real
	// (non-artifact) edges the backbone keeps, weighted by nothing —
	// the false-negative side. A weight threshold avoids artifacts
	// trivially but pays for it here, losing every weak real edge.
	RealRecall map[string]map[string]float64
	// ArtifactShareFull[network] is the artifact share in the full
	// network, the baseline a random filter would achieve.
	ArtifactShareFull map[string]float64
	// Share is the backbone size used (share of edges).
	Share float64
}

// Noise measures artifact retention at a fixed backbone share,
// checking the context between networks.
func Noise(ctx context.Context, c *Country, share float64) (*NoiseResult, error) {
	res := &NoiseResult{
		Methods:           Methods(),
		ArtifactShareKept: map[string]map[string]float64{},
		ArtifactShareFull: map[string]float64{},
		Share:             share,
	}
	res.RealRecall = map[string]map[string]float64{}
	for _, m := range res.Methods {
		res.ArtifactShareKept[m.Name] = map[string]float64{}
		res.RealRecall[m.Name] = map[string]float64{}
	}
	for _, ds := range c.Datasets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Networks = append(res.Networks, ds.Name)
		full := ds.Latest()
		spur := ds.Spurious[len(ds.Spurious)-1]
		isArtifact := func(g *graph.Graph, e graph.Edge) bool {
			k := g.Key(e)
			return spur[k] || spur[graph.EdgeKey{U: k.V, V: k.U}]
		}
		nArt := 0
		for _, e := range full.Edges() {
			if isArtifact(full, e) {
				nArt++
			}
		}
		nReal := full.NumEdges() - nArt
		res.ArtifactShareFull[ds.Name] = float64(nArt) / float64(full.NumEdges())
		for _, m := range res.Methods {
			bb, err := BackboneWithShare(ctx, m, full, share)
			if err != nil {
				res.ArtifactShareKept[m.Name][ds.Name] = math.NaN()
				res.RealRecall[m.Name][ds.Name] = math.NaN()
				continue
			}
			kept, art := 0, 0
			for _, e := range bb.Edges() {
				kept++
				if isArtifact(bb, e) {
					art++
				}
			}
			if kept == 0 {
				res.ArtifactShareKept[m.Name][ds.Name] = math.NaN()
				res.RealRecall[m.Name][ds.Name] = math.NaN()
				continue
			}
			res.ArtifactShareKept[m.Name][ds.Name] = float64(art) / float64(kept)
			if nReal > 0 {
				res.RealRecall[m.Name][ds.Name] = float64(kept-art) / float64(nReal)
			} else {
				res.RealRecall[m.Name][ds.Name] = math.NaN()
			}
		}
	}
	return res, nil
}

// Table renders artifact retention per method.
func (r *NoiseResult) Table() *Table {
	t := &Table{
		Title:  "Noise retention — share of known measurement artifacts kept in the backbone",
		Header: []string{"Method"},
	}
	t.Header = append(t.Header, r.Networks...)
	t.AddRow(append([]string{"(full network)"}, func() []string {
		var cells []string
		for _, n := range r.Networks {
			cells = append(cells, f3(r.ArtifactShareFull[n]))
		}
		return cells
	}()...)...)
	for _, m := range r.Methods {
		row := []string{m.Title}
		for _, n := range r.Networks {
			row = append(row, f3(r.ArtifactShareKept[m.Name][n])+"/"+f3(r.RealRecall[m.Name][n]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"cells are artifactShare/realRecall: share of kept edges that are artifacts (lower",
		"is better) and share of real edges retained (higher is better) — the two sides of",
		"the filtering tradeoff; weight thresholds avoid artifacts but lose weak real edges",
		"artifacts are tracked by the synthetic generators (world.Dataset.Spurious)")
	return t
}
