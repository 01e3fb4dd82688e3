package binfmt_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/graph"
)

// FuzzReadBBG hammers the stream reader with mutated binary input.
// The invariant under fuzzing: Read either returns a typed error
// (ErrCorrupt/ErrUnsupported) or a graph whose every access path —
// adjacency, weights, labels, lazy index, subgraph extraction — is
// memory-safe. Seeds cover each layout variant so mutations reach
// every section decoder.
func FuzzReadBBG(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x89BBG\r\n\x1a\n"))
	f.Add(writeBBG(f, randomGraph(f, 1, 8, 20, false)))   // undirected, labeled
	f.Add(writeBBG(f, randomGraph(f, 2, 8, 20, true)))    // directed, labeled
	f.Add(writeBBG(f, unlabeledGraph(f, 3, 8, 20, true))) // directed, unlabeled
	f.Add(writeBBG(f, graph.NewBuilder(false).Build()))   // empty

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := binfmt.Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, binfmt.ErrCorrupt) && !errors.Is(err, binfmt.ErrUnsupported) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Accepted input: the graph must be fully traversable.
		n := g.NumNodes()
		var sum float64
		for u := 0; u < n; u++ {
			for _, a := range g.Out(u) {
				w, ok := g.Weight(u, int(a.To))
				if !ok {
					t.Fatalf("arc %d->%d not found by Weight", u, a.To)
				}
				sum += w
			}
			for _, a := range g.In(u) {
				_ = g.Edge(int(a.EdgeID))
			}
			if l := g.Label(u); l != "" {
				_ = g.NodeID(l)
			}
		}
		_ = sum
		_ = g.FilterEdges(func(id int, _ graph.Edge) bool { return id%2 == 0 }).NumEdges()
		// Round-trip what we accepted: it must re-serialize and load
		// back bit-identical (the format has one canonical encoding).
		re, err := binfmt.Read(bytes.NewReader(writeBBG(t, g)))
		if err != nil {
			t.Fatalf("re-read of accepted graph failed: %v", err)
		}
		if re.NumNodes() != n || re.NumEdges() != g.NumEdges() {
			t.Fatalf("re-read changed shape: %v vs %v", re, g)
		}
	})
}
