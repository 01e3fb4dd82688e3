package graph_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// selectionWeights are the weights the encoders' fast and slow paths
// split on: fractions, the largest integer below 1e6 and 1e6 itself
// (where 'g' turns to exponent form), huge and subnormal values, +Inf.
var selectionWeights = []float64{0.5, 999999, 1e6, 1e21, 5e-324, math.Inf(1), 1, 42, 123456.75}

// relabel rebuilds g's edges with drawn weights and, per scheme, node
// labels: none, a mix of labeled and unlabeled nodes, or labels that
// need JSON escaping.
func relabel(rng *rand.Rand, g *graph.Graph, directed bool, scheme int) *graph.Graph {
	b := graph.NewBuilder(directed)
	for u := 0; u < g.NumNodes(); u++ {
		switch {
		case scheme == 1 && u%3 != 0:
			b.AddNode(fmt.Sprintf("n%d", u))
		case scheme == 2 && u%2 == 0:
			b.AddNode(fmt.Sprintf("é%d \"q\" \\%d", u, u))
		case scheme == 2 && u%5 == 1:
			b.AddNode(fmt.Sprintf("ü-%d", u))
		default:
			b.AddNode("")
		}
	}
	for _, e := range g.Edges() {
		w := e.Weight
		if rng.Intn(2) == 0 {
			w = selectionWeights[rng.Intn(len(selectionWeights))]
		}
		b.MustAddEdge(int(e.Src), int(e.Dst), w)
	}
	return b.Build()
}

// referenceRows spells a selection the way the edge-list writers always
// have: display labels and strconv.FormatFloat(w, 'g', -1, 64) weights,
// with json.Marshal strings in ndjson.
func referenceRows(sel graph.Selection, format string) ([]byte, error) {
	g := sel.G
	var buf bytes.Buffer
	sep := ","
	if format == "tsv" {
		sep = "\t"
	}
	if format != "ndjson" {
		buf.WriteString("src" + sep + "dst" + sep + "weight\n")
	}
	for i := 0; i < sel.Len(); i++ {
		e := g.Edge(int(sel.ID(i)))
		src, dst := g.LabelOrID(int(e.Src)), g.LabelOrID(int(e.Dst))
		w := strconv.FormatFloat(e.Weight, 'g', -1, 64)
		if format != "ndjson" {
			buf.WriteString(src + sep + dst + sep + w + "\n")
			continue
		}
		if math.IsInf(e.Weight, 0) {
			return nil, errors.New("unsupported value")
		}
		s, _ := json.Marshal(src)
		d, _ := json.Marshal(dst)
		fmt.Fprintf(&buf, `{"src":%s,"dst":%s,"weight":%s}`+"\n", s, d, w)
	}
	return buf.Bytes(), nil
}

// TestWriteSelectionBitIdentical: for csv, tsv and ndjson, writing a
// selection gives exactly the bytes of writing the graph it selects,
// and both spell every row as the reference writer does — over random
// selections (empty and all-edges ones included) of generated graphs
// with unlabeled nodes, escaped labels and every weight-spelling edge
// case. A failing write fails both ways.
func TestWriteSelectionBitIdentical(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		var base *graph.Graph
		if trial%2 == 0 {
			base = gen.ErdosRenyiGNM(rng, 60+rng.Intn(60), 300+rng.Intn(500))
		} else {
			base = gen.BarabasiAlbert(rng, 60+rng.Intn(60), 2)
		}
		g := relabel(rng, base, trial%4 == 1, trial%3)
		var ids []int32
		p := rng.Float64()
		for id := 0; id < g.NumEdges(); id++ {
			if rng.Float64() < p {
				ids = append(ids, int32(id))
			}
		}
		sels := []graph.Selection{{G: g, IDs: ids}, {G: g, IDs: []int32{}}, g.All()}
		for si, sel := range sels {
			for _, format := range []string{"csv", "tsv", "ndjson"} {
				var got, want bytes.Buffer
				errGot := graph.WriteSelection(&got, sel, graph.WriteOptions{Format: format})
				errWant := graph.WriteGraph(&want, sel.Graph(), graph.WriteOptions{Format: format})
				ref, errRef := referenceRows(sel, format)
				if (errGot != nil) != (errWant != nil) || (errGot != nil) != (errRef != nil) {
					t.Fatalf("trial %d sel %d %s: errors differ: selection %v, graph %v, reference %v", trial, si, format, errGot, errWant, errRef)
				}
				if errGot != nil {
					continue
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("trial %d sel %d %s: selection bytes differ from the selected graph's", trial, si, format)
				}
				if !bytes.Equal(got.Bytes(), ref) {
					t.Fatalf("trial %d sel %d %s: bytes differ from the reference spelling", trial, si, format)
				}
			}
		}
	}
}

// TestWriteSelectionLabelCheck: a csv label containing the separator
// is refused before a byte is written — but only when a selected edge
// touches it.
func TestWriteSelectionLabelCheck(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddEdgeLabels("a", "b", 1)
	b.AddEdgeLabels("b", "c,d", 2)
	g := b.Build()
	var buf bytes.Buffer
	err := graph.WriteSelection(&buf, g.All(), graph.WriteOptions{Format: "csv"})
	if !errors.Is(err, graph.ErrUnsafeLabel) || buf.Len() != 0 {
		t.Fatalf("csv with label \"c,d\": err %v after %d bytes; want ErrUnsafeLabel before any byte", err, buf.Len())
	}
	if err := graph.WriteSelection(&buf, graph.Selection{G: g, IDs: []int32{0}}, graph.WriteOptions{Format: "csv"}); err != nil {
		t.Fatalf("selection not touching the label: %v", err)
	}
	if got, want := buf.String(), "src,dst,weight\na,b,1\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	// Of two unsafe labels, the error names the one a row-by-row writer
	// meets first: edge (a, c,y) precedes edge (b,x, d).
	b = graph.NewBuilder(false)
	for _, l := range []string{"a", "b,x", "c,y", "d"} {
		b.AddNode(l)
	}
	b.MustAddEdge(0, 2, 1)
	b.MustAddEdge(1, 3, 1)
	err = graph.WriteSelection(&buf, b.Build().All(), graph.WriteOptions{Format: "csv"})
	if err == nil || !strings.Contains(err.Error(), `"c,y"`) {
		t.Errorf("two unsafe labels: %v; want the error to name \"c,y\"", err)
	}
}
