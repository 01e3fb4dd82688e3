package main

// The corpora the benchmark sends to the program. Every graph is
// generated here from the run's seed, so the same seed gives the same
// bytes; the program under test only ever sees the generated inputs.
//
// The graphs are dense count-weighted Barabási–Albert networks: each
// arriving node attaches to m distinct earlier nodes by preferential
// attachment, and each edge carries a count ⌈lognormal(1, 1.2)⌉. That
// is the regime the paper's noise model is about (integer interaction
// counts with heavy-tailed weights and degrees), and unlike weight-1
// graphs it makes nc and df keep realistic, very different shares of
// the edges, so extraction and encoding do real work.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// scale fixes the corpus sizes of one benchmark scale.
type scale struct {
	// denseNodes/denseM shape the ~1M-edge graph of the batch and
	// session workloads.
	denseNodes, denseM int
	// bodyNodes/bodyM shape each ~20k-edge serving body; bodies is how
	// many distinct ones the serving workloads draw from.
	bodyNodes, bodyM, bodies int
}

var scales = map[string]scale{
	"full":  {denseNodes: 5000, denseM: 200, bodyNodes: 1000, bodyM: 20, bodies: 8},
	"smoke": {denseNodes: 400, denseM: 20, bodyNodes: 200, bodyM: 10, bodies: 8},
}

// corpus is one generated graph: its csv edge list and the node pairs
// of its rows, in body order. Node i is labelled with its decimal ID.
type corpus struct {
	body  []byte
	edges [][2]int32
	nodes int
}

// weightedBA generates a dense count-weighted Barabási–Albert graph on
// n nodes with m attachments per arriving node (all earlier nodes while
// fewer than m exist).
func weightedBA(seed int64, n, m int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{nodes: n}
	// Each endpoint appearance is one unit of degree, so a uniform draw
	// from targets is a degree-proportional draw.
	targets := make([]int32, 0, 2*n*m)
	seen := make([]int32, n) // seen[u] == v+1: u already drawn for v
	picked := make([]int32, 0, m)
	body := make([]byte, 0, 12*n*m)
	for v := 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < min(m, v) {
			var u int32
			if v <= m {
				u = int32(len(picked)) // the first m nodes attach to all predecessors
			} else {
				u = targets[rng.Intn(len(targets))]
			}
			if seen[u] == int32(v)+1 {
				continue
			}
			seen[u] = int32(v) + 1
			picked = append(picked, u)
		}
		for _, u := range picked {
			body = strconv.AppendInt(body, int64(v), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(u), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(count(rng)), 10)
			body = append(body, '\n')
			c.edges = append(c.edges, [2]int32{int32(v), u})
			targets = append(targets, u, int32(v))
		}
	}
	c.body = body
	return c
}

// count draws one edge weight: ⌈lognormal(μ=1, σ=1.2)⌉, always >= 1.
func count(rng *rand.Rand) float64 {
	return math.Ceil(math.Exp(1 + 1.2*rng.NormFloat64()))
}

// denseCorpus is the ~1M-edge graph of the batch and session workloads.
func denseCorpus(seed int64, sc scale) *corpus {
	return weightedBA(seed*1000+1, sc.denseNodes, sc.denseM)
}

// servingBodies are the distinct ~20k-edge bodies of the serving
// workloads.
func servingBodies(seed int64, sc scale) []*corpus {
	out := make([]*corpus, sc.bodies)
	for i := range out {
		out[i] = weightedBA(seed*1000+100+int64(i), sc.bodyNodes, sc.bodyM)
	}
	return out
}

// edgeUpdate is one single-edge session update; weight 0 deletes.
type edgeUpdate struct {
	src, dst int32
	weight   float64
}

// json renders the update as a POST /session/{id}/update body.
func (u edgeUpdate) json() string {
	return fmt.Sprintf(`{"updates":[{"src":"%d","dst":"%d","weight":%s}]}`,
		u.src, u.dst, strconv.FormatFloat(u.weight, 'g', -1, 64))
}

// sessionUpdates draws k updates over c: 80% re-weight an existing
// edge, 10% upsert a random node pair, 10% delete an existing edge.
func sessionUpdates(seed int64, c *corpus, k int) []edgeUpdate {
	rng := rand.New(rand.NewSource(seed*1000 + 2))
	out := make([]edgeUpdate, k)
	for i := range out {
		e := c.edges[rng.Intn(len(c.edges))]
		u := edgeUpdate{src: e[0], dst: e[1], weight: count(rng)}
		switch p := rng.Float64(); {
		case p < 0.1:
			u.src, u.dst = int32(rng.Intn(c.nodes)), int32(rng.Intn(c.nodes))
			for u.src == u.dst {
				u.dst = int32(rng.Intn(c.nodes))
			}
		case p < 0.2:
			u.weight = 0
		}
		out[i] = u
	}
	return out
}

// keptBand is the range a method's kept share of edges must fall in on
// one corpus. A share outside it means the generator or the method
// changed shape, so the run's numbers would not be comparable with
// earlier ones; the run fails its correctness check.
type keptBand struct{ lo, hi float64 }

// keptBands records, per scale, corpus ("dense" or "body") and method,
// a band around the shares seeds 1-12 gave (full dense: nc
// 0.7217-0.7233, df 0.0638-0.0642; full body: nc 0.834-0.845, df
// 0.073-0.078).
var keptBands = map[string]keptBand{
	"full/dense/nc":  {0.71, 0.735},
	"full/dense/df":  {0.060, 0.068},
	"full/body/nc":   {0.82, 0.86},
	"full/body/df":   {0.065, 0.085},
	"smoke/dense/nc": {0.66, 0.72},
	"smoke/dense/df": {0.06, 0.09},
	"smoke/body/nc":  {0.66, 0.75},
	"smoke/body/df":  {0.06, 0.10},
}

// checkKept reports whether share lies in the recorded band.
func checkKept(scaleName, corpusName, method string, share float64) error {
	b, ok := keptBands[scaleName+"/"+corpusName+"/"+method]
	if !ok {
		return fmt.Errorf("no kept-share band recorded for %s/%s/%s", scaleName, corpusName, method)
	}
	if share < b.lo || share > b.hi {
		return fmt.Errorf("%s keeps %.4f of the %s corpus, outside its band [%.4f, %.4f]", method, share, corpusName, b.lo, b.hi)
	}
	return nil
}
