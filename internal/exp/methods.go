package exp

import (
	"context"
	"fmt"

	"repro/internal/filter"
	"repro/internal/graph"

	// The algorithm packages self-register their methods; the blank
	// imports guarantee registration even though other files in this
	// package also import them by name.
	_ "repro/internal/backbone"
	_ "repro/internal/core"
)

// paperOrder lists the six algorithms of the paper's comparison in its
// presentation order.
var paperOrder = []string{"nc", "df", "hss", "ds", "mst", "nt"}

// Methods returns the six algorithms in the paper's comparison, looked
// up from the central method registry, in the paper's presentation
// order: NC, DF, HSS, DS, MST, NT.
func Methods() []*filter.Method {
	ms, err := filter.Default.Select(paperOrder, nil)
	if err != nil {
		// The registry is populated by package init; a missing paper
		// method is a programming error, not a runtime condition.
		panic(fmt.Sprintf("exp: paper method missing from registry: %v", err))
	}
	return ms
}

// BackboneWithShare extracts a backbone keeping (approximately) the
// given share of the graph's edges. Ranked methods take their top
// edges; fixed-size methods return their canonical output regardless
// of the share, as the paper does when it compares methods "for a given
// number of edges" (MST and DS cannot be tuned).
func BackboneWithShare(ctx context.Context, m *filter.Method, g *graph.Graph, share float64) (*graph.Graph, error) {
	k := -1
	if m.CanScore() && !m.FixedSize {
		k = int(share*float64(g.NumEdges()) + 0.5)
	}
	sel, _, err := m.BackboneCtx(ctx, g, m.Defaults(), k, nil, nil)
	if err != nil {
		return nil, err
	}
	return sel.Graph(), nil
}
