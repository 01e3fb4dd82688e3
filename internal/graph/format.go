// Graph serialization is pluggable: every edge-list encoding registers
// a Format, and ReadGraph / WriteGraph dispatch by explicit name, file
// extension, or content sniffing. Gzip-compressed input is decompressed
// transparently regardless of format.

package graph

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownFormat marks a graph format name (or file extension) absent
// from the format registry.
var ErrUnknownFormat = errors.New("unknown graph format")

// Format describes one edge-list encoding: identity, the extensions it
// claims, and its reader/writer/sniffer functions. Formats self-register
// via RegisterFormat and become available to ReadGraph, WriteGraph, the
// CLIs and the HTTP daemon without further dispatch code.
type Format struct {
	// Name is the identifier used in options, flags and query
	// parameters: "csv", "tsv", "ndjson".
	Name string
	// Exts are the file extensions the format claims, dot included
	// (".csv"). Used to resolve formats from paths.
	Exts []string
	// Desc is a one-line human description for generated tables.
	Desc string
	// Order fixes presentation (and sniffing) order in Formats().
	Order int
	// Read parses an edge list into a Graph.
	Read func(r io.Reader, directed bool) (*Graph, error)
	// Write serializes the selected edges in canonical order.
	Write func(w io.Writer, sel Selection) error
	// Sniff reports whether the (decompressed) leading bytes of an
	// input look like this format; nil means the format cannot be
	// sniffed and must be named explicitly.
	Sniff func(prefix []byte) bool
}

// formatRegistry is a concurrency-safe name-indexed Format collection.
type formatRegistry struct {
	mu      sync.RWMutex
	formats map[string]*Format
}

var formatReg = formatRegistry{formats: make(map[string]*Format)}

// RegisterFormat adds a format to the registry, rejecting duplicates,
// missing names, and entries with neither reader nor writer.
func RegisterFormat(f *Format) error {
	if f == nil || f.Name == "" {
		return fmt.Errorf("graph: format must have a name")
	}
	if f.Read == nil && f.Write == nil {
		return fmt.Errorf("graph: format %q has neither reader nor writer", f.Name)
	}
	formatReg.mu.Lock()
	defer formatReg.mu.Unlock()
	if _, dup := formatReg.formats[f.Name]; dup {
		return fmt.Errorf("graph: format %q already registered", f.Name)
	}
	formatReg.formats[f.Name] = f
	return nil
}

// MustRegisterFormat is RegisterFormat that panics — for package init.
func MustRegisterFormat(f *Format) {
	if err := RegisterFormat(f); err != nil {
		panic(err)
	}
}

// LookupFormat resolves a format by name or by file extension (with or
// without the leading dot); ".gz" suffixes are stripped first, so
// "edges.csv.gz" resolves to csv.
func LookupFormat(name string) (*Format, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	key = strings.TrimSuffix(key, ".gz")
	if i := strings.LastIndexByte(key, '.'); i > 0 {
		key = key[i:] // a path: match on its extension
	}
	formatReg.mu.RLock()
	defer formatReg.mu.RUnlock()
	if f, ok := formatReg.formats[strings.TrimPrefix(key, ".")]; ok {
		return f, nil
	}
	// The extension fallback scans in (Order, Name) order, so two
	// formats claiming one extension resolve the same way every run.
	for _, f := range sortedFormatsLocked() {
		for _, ext := range f.Exts {
			if key == ext || "."+key == ext {
				return f, nil
			}
		}
	}
	return nil, fmt.Errorf("graph: %w %q (known: %v)", ErrUnknownFormat, name, FormatNames())
}

// sortedFormatsLocked snapshots the registry in (Order, Name) order.
// The caller must hold formatReg.mu.
func sortedFormatsLocked() []*Format {
	out := make([]*Format, 0, len(formatReg.formats))
	//lint:detiter-ok collecting values only; sorted by (Order, Name) below
	for _, f := range formatReg.formats {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Formats returns every registered format sorted by (Order, Name).
func Formats() []*Format {
	formatReg.mu.RLock()
	defer formatReg.mu.RUnlock()
	return sortedFormatsLocked()
}

// FormatNames returns the registered format names in Formats order.
func FormatNames() []string {
	fs := Formats()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// writableFormatNames returns the names of formats that can serialize
// graphs, in Formats order — the suggestion list for WriteGraph errors.
func writableFormatNames() []string {
	var names []string
	for _, f := range Formats() {
		if f.Write != nil {
			names = append(names, f.Name)
		}
	}
	return names
}

// ReadOptions controls ReadGraph. The zero value sniffs the format and
// builds an undirected graph.
type ReadOptions struct {
	// Format names the input encoding; empty means sniff the content
	// (falling back to csv).
	Format string
	// Directed builds a directed graph.
	Directed bool
}

// WriteOptions controls WriteGraph. The zero value writes csv.
type WriteOptions struct {
	// Format names the output encoding (default "csv").
	Format string
	// Gzip compresses the output.
	Gzip bool
}

// sniffFormat picks the first registered format whose sniffer accepts
// the prefix; csv is the fallback (it also parses tab- and space-
// separated lines).
func sniffFormat(prefix []byte) *Format {
	for _, f := range Formats() {
		if f.Sniff != nil && f.Sniff(prefix) {
			return f
		}
	}
	if f, err := LookupFormat("csv"); err == nil {
		return f
	}
	return nil
}

// firstLine returns the first non-blank, non-comment line of prefix.
func firstLine(prefix []byte) []byte {
	for len(prefix) > 0 {
		line := prefix
		rest := []byte(nil)
		if i := bytes.IndexByte(prefix, '\n'); i >= 0 {
			line, rest = prefix[:i], prefix[i+1:]
		}
		line = bytes.TrimSpace(line)
		if len(line) > 0 && line[0] != '#' {
			return line
		}
		prefix = rest
	}
	return nil
}

// sizedReader augments a buffered reader with the total number of
// bytes left to read, so the edge-list codec can size its chunk and
// edge buffers to the input (see chunkReader and Builder.presize). Len
// counts the bytes still buffered plus whatever the original source
// reports.
type sizedReader struct {
	*bufio.Reader
	source interface{ Len() int }
}

func (s *sizedReader) Len() int { return s.Buffered() + s.source.Len() }

// ReadGraph parses an edge list from r. Gzip-compressed input is
// detected by magic number and decompressed transparently; the format
// is then taken from o.Format or sniffed from the leading content.
// When r knows its remaining size (bytes.Reader, strings.Reader — the
// daemon's in-memory request bodies) and the input is not compressed,
// the size is forwarded to the codec for sizing its buffers.
func ReadGraph(r io.Reader, o ReadOptions) (*Graph, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	gzipped := false
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: gzip input: %v", err)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 64<<10)
		gzipped = true
	}
	var f *Format
	if o.Format != "" {
		var err error
		if f, err = LookupFormat(o.Format); err != nil {
			return nil, err
		}
	} else {
		prefix, err := br.Peek(4096)
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("graph: read: %v", err)
		}
		f = sniffFormat(prefix)
	}
	if f == nil || f.Read == nil {
		return nil, fmt.Errorf("graph: %w: no readable format", ErrUnknownFormat)
	}
	var in io.Reader = br
	if src, ok := r.(interface{ Len() int }); ok && !gzipped {
		in = &sizedReader{Reader: br, source: src}
	}
	return f.Read(in, o.Directed)
}

// WriteGraph serializes g's canonical edge list to w in the selected
// format, optionally gzip-compressed. All registered formats round-trip
// bit-identically: reading the output back yields the same canonical
// edge slice (labels and exact weights preserved).
func WriteGraph(w io.Writer, g *Graph, o WriteOptions) error {
	return WriteSelection(w, g.All(), o)
}

// WriteSelection is WriteGraph for the edges sel keeps: the bytes are
// those of WriteGraph(sel.Graph()), written without building it.
func WriteSelection(w io.Writer, sel Selection, o WriteOptions) error {
	name := o.Format
	if name == "" {
		name = "csv"
	}
	f, err := LookupFormat(name)
	if err != nil {
		// Re-wrap with the writable subset: "edges.xyz" failing with a
		// list that names read-only formats would just misdirect.
		return fmt.Errorf("graph: cannot write %w %q (writable formats: %s)",
			ErrUnknownFormat, name, strings.Join(writableFormatNames(), ", "))
	}
	if f.Write == nil {
		return fmt.Errorf("graph: format %q is read-only (writable formats: %s)",
			f.Name, strings.Join(writableFormatNames(), ", "))
	}
	if o.Gzip {
		zw := gzip.NewWriter(w)
		if err := f.Write(zw, sel); err != nil {
			zw.Close()
			return err
		}
		return zw.Close()
	}
	return f.Write(w, sel)
}

func init() {
	MustRegisterFormat(&Format{
		Name:  "csv",
		Exts:  []string{".csv", ".txt", ".edges"},
		Desc:  "comma-separated `src,dst,weight` lines; also accepts tab- or space-separated input, `#` comments and a header row",
		Order: 10,
		Read:  readEdgeList,
		Write: func(w io.Writer, sel Selection) error { return WriteEdgeRows(w, sel, ',') },
		// csv is the sniffing fallback; no sniffer needed.
	})
	MustRegisterFormat(&Format{
		Name:  "tsv",
		Exts:  []string{".tsv", ".tab"},
		Desc:  "tab-separated `src\\tdst\\tweight` lines; labels may contain commas",
		Order: 20,
		Read:  readEdgeList,
		Write: func(w io.Writer, sel Selection) error { return WriteEdgeRows(w, sel, '\t') },
		Sniff: func(prefix []byte) bool {
			return bytes.IndexByte(firstLine(prefix), '\t') >= 0
		},
	})
	MustRegisterFormat(&Format{
		Name:  "ndjson",
		Exts:  []string{".ndjson", ".jsonl"},
		Desc:  "newline-delimited JSON objects `{\"src\":…,\"dst\":…,\"weight\":…}`; src/dst may be strings or numbers",
		Order: 30,
		Read:  readNDJSON,
		Write: writeNDJSON,
		Sniff: func(prefix []byte) bool {
			line := firstLine(prefix)
			return len(line) > 0 && line[0] == '{'
		},
	})
}
