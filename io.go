package repro

import (
	"fmt"
	"io"
	"strings"

	_ "repro/internal/binfmt" // registers the binary .bbg graph format
	"repro/internal/graph"
)

// GraphFormat describes one registered edge-list encoding: its name,
// the file extensions it claims, and whether it can be detected by
// content sniffing. See Formats and FormatsTable.
type GraphFormat = graph.Format

// Formats lists every registered graph I/O format in presentation
// order (csv, tsv, ndjson, ...).
func Formats() []*GraphFormat { return graph.Formats() }

// LookupFormat resolves a registered format by name ("ndjson"), file
// extension (".jsonl") or path ("edges.csv.gz").
func LookupFormat(name string) (*GraphFormat, error) { return graph.LookupFormat(name) }

// ioConfig collects the ReadGraph/WriteGraph options.
type ioConfig struct {
	format   string
	directed bool
	gzip     bool
}

// IOOption configures ReadGraph and WriteGraph.
type IOOption func(*ioConfig)

// WithFormat selects the edge-list encoding by registry name ("csv",
// "tsv", "ndjson"), file extension (".jsonl") or path ("edges.csv.gz").
// Reading without it sniffs the content; writing without it emits csv.
func WithFormat(name string) IOOption {
	return func(c *ioConfig) { c.format = name }
}

// WithDirected controls whether ReadGraph builds a directed graph
// (default: undirected). It has no effect on WriteGraph.
func WithDirected(directed bool) IOOption {
	return func(c *ioConfig) { c.directed = directed }
}

// WithGzip makes WriteGraph compress its output. ReadGraph needs no
// option: gzip input is detected by magic number and decompressed
// transparently.
func WithGzip() IOOption {
	return func(c *ioConfig) { c.gzip = true }
}

// ReadGraph parses a weighted edge list from r into a Graph. The
// format is sniffed from the content unless WithFormat selects one;
// gzip-compressed input is decompressed transparently either way.
//
// Decoding streams through a chunked, allocation-free codec that fans
// chunks out to GOMAXPROCS shard parsers on multi-core machines; when
// r knows its size (bytes.Reader, strings.Reader), no read buffer
// outgrows the input and the edge buffer is sized from it. Results are
// identical regardless of parallelism or reader type.
//
//	g, err := repro.ReadGraph(f)                                  // sniffed
//	g, err := repro.ReadGraph(f, repro.WithFormat("ndjson"))
//	g, err := repro.ReadGraph(f, repro.WithDirected(true))
func ReadGraph(r io.Reader, opts ...IOOption) (*Graph, error) {
	var c ioConfig
	for _, o := range opts {
		o(&c)
	}
	return graph.ReadGraph(r, graph.ReadOptions{Format: c.format, Directed: c.directed})
}

// WriteGraph serializes g's canonical edge list to w — csv by default,
// any registered format via WithFormat, optionally gzip-compressed via
// WithGzip. Every format round-trips bit-identically through ReadGraph.
func WriteGraph(w io.Writer, g *Graph, opts ...IOOption) error {
	return WriteSelection(w, g.All(), opts...)
}

// WriteSelection is WriteGraph for the edges a selection keeps: the
// bytes WriteGraph(w, sel.Graph()) writes, without building the graph.
// A csv or tsv label containing the separator is an ErrUnsafeLabel
// error, returned before any byte is written.
func WriteSelection(w io.Writer, sel Selection, opts ...IOOption) error {
	var c ioConfig
	for _, o := range opts {
		o(&c)
	}
	return graph.WriteSelection(w, sel, graph.WriteOptions{Format: c.format, Gzip: c.gzip})
}

// FormatsTable renders the registered I/O formats as a GitHub-flavored
// markdown table — the README's format table is this function's output.
func FormatsTable() string {
	out := "| Format | Extensions | Sniffed | Description |\n|---|---|---|---|\n"
	for _, f := range Formats() {
		exts := strings.Join(f.Exts, ", ")
		sniffed := "fallback"
		if f.Sniff != nil {
			sniffed = "✓"
		}
		out += fmt.Sprintf("| `%s` | %s | %s | %s |\n", f.Name, exts, sniffed, f.Desc)
	}
	return out
}
