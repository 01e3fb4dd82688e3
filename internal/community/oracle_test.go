package community

// modularity is the adjacency-map modularity, the property-test oracle
// for the CSR-native Modularity (it also handles the self-loop weights
// that only arise on aggregated supernode graphs, which never reach
// the public entry point).
func (a *adj) modularity(part []int) float64 {
	if a.total == 0 {
		return 0
	}
	twoM := 2 * a.total
	// Per-community: internal weight (each edge once) and strength sum.
	intw := map[int]float64{}
	str := map[int]float64{}
	for u := 0; u < a.n; u++ {
		c := part[u]
		str[c] += a.strength(u)
		intw[c] += a.self[u]
		for _, v := range sortedKeys(a.nbr[u]) {
			if u < v && part[v] == c {
				intw[c] += a.nbr[u][v]
			}
		}
	}
	q := 0.0
	for _, c := range sortedKeys(intw) {
		q += 2 * intw[c] / twoM
	}
	for _, c := range sortedKeys(str) {
		s := str[c]
		q -= (s / twoM) * (s / twoM)
	}
	return q
}
