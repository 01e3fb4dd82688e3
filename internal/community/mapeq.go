package community

import (
	"math/rand"

	"repro/internal/graph"
)

// CodeLength returns the map-equation description length, in bits per
// random-walk step, of a partition of g (Rosvall & Bergstrom 2008).
// The one-module partition's codelength equals the entropy of the
// stationary visit rates — the "without communities" baseline the case
// study reports (7.97 bits on the occupation network).
//
// Using the standard flattened form with plogp(x) = x·log2 x:
//
//	L(M) = plogp(Σ_m q_m) - 2 Σ_m plogp(q_m)
//	     - Σ_α plogp(p_α) + Σ_m plogp(q_m + Σ_{α∈m} p_α)
//
// where p_α is node α's visit rate (strength share) and q_m module m's
// exit rate.
//
//lint:ctxflow-ok case-study criterion: one fold over an already-pruned backbone, between the engine's ctx checks
func CodeLength(g *graph.Graph, part []int) float64 {
	u := g.Undirected()
	if u.TotalWeight() == 0 {
		return 0
	}
	// CSR-native: visit rates come from the precomputed strengths and
	// exit rates from one pass over the canonical edge slice, with
	// community labels densified into slice indices — no adjacency maps
	// and no per-module maps. The adj-based codeLength below is the
	// optimizer's own objective (aggregated supernode graphs carry
	// self-loops), and the property test compares the two.
	dense, k := densified(part)
	twoM := u.TotalWeight() // undirected TotalWeight counts each edge twice = 2m
	qm := make([]float64, k)
	pm := make([]float64, k)
	var nodeTerm float64
	for n, i := u.NumNodes(), 0; i < n; i++ {
		p := u.OutStrength(i) / twoM
		pm[dense[i]] += p
		nodeTerm += plogp(p)
	}
	for _, e := range u.Edges() {
		cu, cv := dense[e.Src], dense[e.Dst]
		if cu != cv {
			// A cross-module edge is an exit of both endpoints' modules.
			qm[cu] += e.Weight / twoM
			qm[cv] += e.Weight / twoM
		}
	}
	var sumQ, qTerm, moduleTerm float64
	for c := 0; c < k; c++ {
		sumQ += qm[c]
		qTerm += plogp(qm[c])
		moduleTerm += plogp(qm[c] + pm[c])
	}
	return plogp(sumQ) - 2*qTerm - nodeTerm + moduleTerm
}

// codeLength is the adjacency-map map equation Infomap optimizes
// (aggregated graphs carry self-loop weights); the property test also
// uses it as the oracle for the CSR-native CodeLength above.
func (a *adj) codeLength(part []int) float64 {
	if a.total == 0 {
		return 0
	}
	twoM := 2 * a.total
	qm := map[int]float64{} // module exit rates
	pm := map[int]float64{} // module visit-rate sums
	var nodeTerm float64
	for u := 0; u < a.n; u++ {
		cu := part[u]
		p := a.strength(u) / twoM
		pm[cu] += p
		nodeTerm += plogp(p)
		for _, v := range sortedKeys(a.nbr[u]) {
			if part[v] != cu {
				qm[cu] += a.nbr[u][v] / twoM
			}
		}
	}
	var sumQ, qTerm, moduleTerm float64
	for _, c := range sortedKeys(qm) {
		q := qm[c]
		sumQ += q
		qTerm += plogp(q)
		moduleTerm += plogp(q + pm[c])
	}
	// Modules with zero exit still need their intra term.
	for _, c := range sortedKeys(pm) {
		if _, ok := qm[c]; !ok {
			moduleTerm += plogp(pm[c])
		}
	}
	return plogp(sumQ) - 2*qTerm - nodeTerm + moduleTerm
}

// Infomap searches for the partition minimizing the map equation with
// the same two-phase strategy as Louvain: randomized local moves, then
// aggregation, repeated until the codelength stops improving. It is a
// faithful small-scale stand-in for the reference Infomap used in the
// paper's case study.
func Infomap(g *graph.Graph, rng *rand.Rand) []int {
	a := newAdj(g)
	part := make([]int, a.n)
	for i := range part {
		part[i] = i
	}
	assign := make([]int, a.n)
	for i := range assign {
		assign[i] = i
	}
	best := a.codeLength(part)
	for {
		a.localMoveMapEq(part, rng)
		k := densify(part)
		for i := range assign {
			assign[i] = part[assign[i]]
		}
		agg := a.aggregate(part, k)
		aggPart := make([]int, k)
		for i := range aggPart {
			aggPart[i] = i
		}
		l := agg.codeLength(aggPart)
		if l >= best-1e-12 || k == a.n {
			break
		}
		best = l
		a = agg
		part = aggPart
	}
	densify(assign)
	return assign
}

// localMoveMapEq sweeps nodes into the neighboring module that most
// reduces the codelength, recomputed incrementally via the four-term
// decomposition: only the terms of the affected modules and the global
// exit-rate sum change on a move.
func (a *adj) localMoveMapEq(part []int, rng *rand.Rand) {
	twoM := 2 * a.total
	if twoM == 0 {
		return
	}
	qm := map[int]float64{}
	pm := map[int]float64{}
	pa := make([]float64, a.n)
	for u := 0; u < a.n; u++ {
		pa[u] = a.strength(u) / twoM
		pm[part[u]] += pa[u]
		for _, v := range sortedKeys(a.nbr[u]) {
			if part[v] != part[u] {
				qm[part[u]] += a.nbr[u][v] / twoM
			}
		}
	}
	var sumQ float64
	for _, c := range sortedKeys(qm) {
		sumQ += qm[c]
	}
	// deltaRemove computes the change in the module-dependent terms when
	// u leaves module c (with wc = weight from u into c, excluding u).
	termsFor := func(q, p float64) float64 { return -2*plogp(q) + plogp(q+p) }
	for sweep := 0; sweep < 50; sweep++ {
		moved := false
		for _, u := range shuffled(rng, a.n) {
			cu := part[u]
			wTo := map[int]float64{}
			var wTotal float64
			for _, v := range sortedKeys(a.nbr[u]) {
				w := a.nbr[u][v]
				wTo[part[v]] += w / twoM
				wTotal += w / twoM
			}
			// Current contribution of u's module and sumQ.
			qOld, pOld := qm[cu], pm[cu]
			// After removing u from cu: exits from cu drop by u's links
			// into cu but gain u's links out of cu... removing u entirely:
			qCuWithoutU := qOld - (wTotal - wTo[cu]) + wTo[cu]
			pCuWithoutU := pOld - pa[u]
			if pCuWithoutU < 1e-15 {
				qCuWithoutU, pCuWithoutU = 0, 0
			}
			sumQWithoutU := sumQ - qOld + qCuWithoutU

			type cand struct {
				c          int
				q, p, sumQ float64 // resulting module state if u joins c
			}
			best := cand{c: cu, q: qOld, p: pOld, sumQ: sumQ}
			bestDelta := 0.0
			base := plogp(sumQ) + termsFor(qOld, pOld)
			// Candidates in sorted order: under the strict-improvement
			// threshold below, equal-delta candidates resolve to the
			// lowest module id every run instead of map order — the
			// documented fixed-seed reproducibility depends on it.
			for _, c := range sortedKeys(wTo) {
				if c == cu {
					continue
				}
				qc, pc := qm[c], pm[c]
				// u joins c: c's exits gain u's external links, lose the
				// links u has into c (now internal).
				qNew := qc + (wTotal - wTo[c]) - wTo[c]
				pNew := pc + pa[u]
				sq := sumQWithoutU - qc + qNew
				delta := plogp(sq) + termsFor(qCuWithoutU, pCuWithoutU) + termsFor(qNew, pNew) -
					base - termsFor(qc, pc)
				if delta < bestDelta-1e-12 {
					bestDelta = delta
					best = cand{c: c, q: qNew, p: pNew, sumQ: sq}
				}
			}
			if best.c != cu {
				part[u] = best.c
				qm[cu], pm[cu] = qCuWithoutU, pCuWithoutU
				qm[best.c], pm[best.c] = best.q, best.p
				sumQ = best.sumQ
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}
