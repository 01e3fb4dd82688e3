package graph

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// benchEdgeListCSV renders a reproducible m-edge labeled edge list as
// csv bytes — the ingest benchmark corpus. Node count tracks the Fig-9
// Erdős–Rényi shape (m = 1.5·n).
func benchEdgeListCSV(m int) []byte {
	n := m * 2 / 3
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	buf.Grow(m * 24)
	buf.WriteString("src,dst,weight\n")
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		fmt.Fprintf(&buf, "n%d,n%d,%.6g\n", u, v, 1+rng.Float64()*20)
	}
	return buf.Bytes()
}

// benchCountsCSV renders a reproducible count-weighted Barabási–Albert
// edge list as csv bytes: each arriving node v attaches to k distinct
// earlier nodes drawn by degree, one "v,u,count" row per attachment,
// with counts ⌈lognormal(1, 1.2)⌉ and decimal node labels. That is the
// shape of the daemon's serving bodies and of the batch corpus: few
// labels, each on many rows, and plain integer weights.
func benchCountsCSV(n, k int) []byte {
	rng := rand.New(rand.NewSource(11))
	targets := make([]int, 0, 2*n*k)
	seen := make([]int, n) // seen[u] == v+1: u already drawn for v
	picked := make([]int, 0, k)
	buf := make([]byte, 0, 12*n*k)
	for v := 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < min(k, v) {
			u := len(picked) // the first k nodes attach to all predecessors
			if v > k {
				u = targets[rng.Intn(len(targets))]
			}
			if seen[u] == v+1 {
				continue
			}
			seen[u] = v + 1
			picked = append(picked, u)
		}
		for _, u := range picked {
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(math.Ceil(math.Exp(1+1.2*rng.NormFloat64()))), 10)
			buf = append(buf, '\n')
			targets = append(targets, u, v)
		}
	}
	return buf
}

func benchRead(b *testing.B, m int, read func(r io.Reader, directed bool) (*Graph, error)) {
	benchReadData(b, benchEdgeListCSV(m), read)
}

func benchReadData(b *testing.B, data []byte, read func(r io.Reader, directed bool) (*Graph, error)) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := read(bytes.NewReader(data), false)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkReadCSV100k(b *testing.B) { benchRead(b, 100_000, readEdgeList) }
func BenchmarkReadCSV1M(b *testing.B)   { benchRead(b, 1_000_000, readEdgeList) }

// The Counts corpora have the shape the NC null model is defined on:
// 19,790 edges over 1,000 nodes (a serving body) and 979,900 edges
// over 5,000 nodes (the batch corpus), integer counts throughout.
func BenchmarkReadCSVCounts20k(b *testing.B) {
	benchReadData(b, benchCountsCSV(1000, 20), readEdgeList)
}
func BenchmarkReadCSVCounts1M(b *testing.B) {
	benchReadData(b, benchCountsCSV(5000, 200), readEdgeList)
}

// The pre-PR line-by-line reader stays benchmarked so the codec's
// speedup (BENCH_baseline.json post_pr4) remains re-measurable on
// identical corpora.
func BenchmarkReadCSVSerial100k(b *testing.B) { benchRead(b, 100_000, readEdgeListSerial) }
func BenchmarkReadCSVSerial1M(b *testing.B)   { benchRead(b, 1_000_000, readEdgeListSerial) }

func BenchmarkWriteCSV100k(b *testing.B) {
	g, err := readEdgeList(bytes.NewReader(benchEdgeListCSV(100_000)), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteNDJSON100k(b *testing.B) {
	g, err := readEdgeList(bytes.NewReader(benchEdgeListCSV(100_000)), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeNDJSON(io.Discard, g.All()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSelection1M writes a df-sized selection (one edge in
// sixteen, the share df keeps of the benchmark corpus) of a 1M-edge
// graph as csv: the session and cache-hit reply path.
func BenchmarkWriteSelection1M(b *testing.B) {
	g, err := readEdgeList(bytes.NewReader(benchEdgeListCSV(1_000_000)), false)
	if err != nil {
		b.Fatal(err)
	}
	var ids []int32
	for id := 0; id < g.NumEdges(); id += 16 {
		ids = append(ids, int32(id))
	}
	sel := Selection{G: g, IDs: ids}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteEdgeRows(io.Discard, sel, ','); err != nil {
			b.Fatal(err)
		}
	}
}
