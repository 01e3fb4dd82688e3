package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
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

func benchRead(b *testing.B, m int, read func(r io.Reader, directed bool) (*Graph, error)) {
	data := benchEdgeListCSV(m)
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
