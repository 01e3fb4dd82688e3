package eval

import (
	"math"

	"repro/internal/graph"
)

// Jaccard returns |A ∩ B| / |A ∪ B| between two edge-key sets. It is
// the map-based oracle behind EdgeJaccard (and its fallback when the
// compared graphs disagree on directedness).
func Jaccard(a, b map[graph.EdgeKey]bool) float64 {
	inter := 0
	//lint:detiter-ok integer membership count; commutative in any order
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return math.NaN()
	}
	return float64(inter) / float64(union)
}
