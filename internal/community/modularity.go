package community

import (
	"math/rand"

	"repro/internal/graph"
)

// Modularity returns Newman's weighted modularity of a partition:
//
//	Q = (1/2m) Σ_ij (A_ij - k_i k_j / 2m) δ(c_i, c_j),
//
// computed on the undirected (symmetrized) view of g. This is the
// metric the case study reports for the expert two-digit occupation
// classification on each backbone (NC 0.192 vs DF 0.115).
//
//lint:ctxflow-ok case-study criterion: one fold over an already-pruned backbone, between the engine's ctx checks
func Modularity(g *graph.Graph, part []int) float64 {
	u := g.Undirected()
	if u.TotalWeight() == 0 {
		return 0
	}
	// CSR-native: one pass over the canonical edge slice plus the
	// precomputed strengths — no adjacency maps, no per-community maps
	// (labels are densified into slice indices). Louvain's local moves
	// run on the adjacency maps instead; the adj-based oracle the
	// property test compares against lives in oracle_test.go.
	dense, k := densified(part)
	// For undirected graphs TotalWeight counts each edge twice, so it is
	// exactly the 2m normalizer.
	twoM := u.TotalWeight()
	intw := make([]float64, k)
	str := make([]float64, k)
	for n, i := u.NumNodes(), 0; i < n; i++ {
		str[dense[i]] += u.OutStrength(i)
	}
	for _, e := range u.Edges() {
		if c := dense[e.Src]; c == dense[e.Dst] {
			intw[c] += e.Weight
		}
	}
	q := 0.0
	for c := 0; c < k; c++ {
		q += 2 * intw[c] / twoM
		s := str[c] / twoM
		q -= s * s
	}
	return q
}

// densified returns a copy of part with labels renumbered to 0..k-1,
// and k — so per-community accumulators can be flat slices.
func densified(part []int) ([]int, int) {
	dense := append([]int(nil), part...)
	return dense, densify(dense)
}

// Louvain greedily maximizes modularity with the two-phase method of
// Blondel et al.: sweep local node moves to the best neighboring
// community until no gain, aggregate communities into supernodes, and
// repeat. The rng fixes tie-breaking and sweep order, making runs
// reproducible.
func Louvain(g *graph.Graph, rng *rand.Rand) []int {
	a := newAdj(g)
	part := make([]int, a.n) // partition of current-level supernodes
	for i := range part {
		part[i] = i
	}
	assign := make([]int, a.n) // final assignment of original nodes
	for i := range assign {
		assign[i] = i
	}
	for {
		improved := a.localMoveModularity(part, rng)
		k := densify(part)
		// Project this level's labels onto the original nodes.
		for i := range assign {
			assign[i] = part[assign[i]]
		}
		if !improved || k == a.n {
			break
		}
		a = a.aggregate(part, k)
		part = make([]int, k)
		for i := range part {
			part[i] = i
		}
	}
	densify(assign)
	return assign
}

// localMoveModularity sweeps nodes, moving each to the neighboring
// community with the highest modularity gain, until a full sweep makes
// no move. Reports whether any move happened.
func (a *adj) localMoveModularity(part []int, rng *rand.Rand) bool {
	twoM := 2 * a.total
	if twoM == 0 {
		return false
	}
	// Community strength sums.
	commStr := make(map[int]float64)
	for u := 0; u < a.n; u++ {
		commStr[part[u]] += a.strength(u)
	}
	anyMove := false
	for {
		moved := false
		for _, u := range shuffled(rng, a.n) {
			cu := part[u]
			ku := a.strength(u)
			// Weight from u to each adjacent community.
			wTo := map[int]float64{}
			for _, v := range sortedKeys(a.nbr[u]) {
				wTo[part[v]] += a.nbr[u][v]
			}
			commStr[cu] -= ku
			bestC, bestGain := cu, 0.0
			baseline := wTo[cu] - commStr[cu]*ku/twoM
			// Candidates in sorted order: under the strict-improvement
			// threshold below, equal-gain candidates resolve to the
			// lowest community id every run instead of map order — the
			// documented fixed-seed reproducibility depends on it.
			for _, c := range sortedKeys(wTo) {
				if c == cu {
					continue
				}
				gain := (wTo[c] - commStr[c]*ku/twoM) - baseline
				if gain > bestGain+1e-12 {
					bestGain, bestC = gain, c
				}
			}
			commStr[bestC] += ku
			if bestC != cu {
				part[u] = bestC
				moved = true
				anyMove = true
			}
		}
		if !moved {
			return anyMove
		}
	}
}
