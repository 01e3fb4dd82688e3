package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// maxLineBytes caps a single input line. Edge-list lines are three
// short fields; anything near this limit is a malformed or binary file.
const maxLineBytes = 1 << 20

// ErrLineTooLong marks an input line exceeding the per-line cap. It
// used to surface as bufio.Scanner's generic "token too long"; now it
// carries the offending line number.
var ErrLineTooLong = errors.New("line too long")

// label returns the display label of a node: its string label when one
// was assigned, else its numeric ID.
func (g *Graph) label(id int32) string {
	if l := g.labels[id]; l != "" {
		return l
	}
	return strconv.Itoa(int(id))
}

// LabelOrID is the node's display label for serialization: its string
// label when one was assigned, else its numeric ID.
func (g *Graph) LabelOrID(u int) string { return g.label(int32(u)) }

// ErrUnsafeLabel marks a node label an edge-list format cannot carry:
// it contains the format's field separator or a line break.
var ErrUnsafeLabel = errors.New("label contains the field separator")

// labelError names the offending label and wraps ErrUnsafeLabel.
type labelError struct {
	label string
	sep   byte
}

func (e *labelError) Error() string {
	return fmt.Sprintf("graph: label %q contains the field separator %q; write this graph as ndjson instead", e.label, e.sep)
}

func (e *labelError) Unwrap() error { return ErrUnsafeLabel }

// Column is one more per-edge field an edge-list row carries after its
// weight: the header name and a function appending the value for a
// canonical edge id.
type Column struct {
	Name   string
	Append func(buf []byte, id int32) []byte
}

// writeBlock is the size at which the encoders hand their row buffer
// to the writer.
const writeBlock = 64 << 10

// WriteEdgeRows writes sel's edges as sep-separated rows under a
// header: src, dst and weight, then the given columns. It is the one
// row writer behind the csv and tsv formats. Weights use strconv's
// shortest exact representation, so written graphs read back
// bit-identically. A label containing the separator (or a line break)
// would corrupt its row and break that guarantee, so it is an
// ErrUnsafeLabel error, returned before any byte is written: the
// labels of the nodes sel touches are checked up front, once per node.
//
// Rows are byte-built into one buffer handed to w in 64 KiB blocks,
// labels appended straight from G's strings, so writing allocates O(1)
// rather than O(edges).
//
//lint:ctxflow-ok encoder over an already-cut selection; the caller's io.Writer bounds it
func WriteEdgeRows(w io.Writer, sel Selection, sep byte, cols ...Column) error {
	if err := sel.checkLabels(sep); err != nil {
		return err
	}
	g, n := sel.G, sel.Len()
	buf := make([]byte, 0, 2*writeBlock)
	buf = append(buf, "src"...)
	buf = append(buf, sep)
	buf = append(buf, "dst"...)
	buf = append(buf, sep)
	buf = append(buf, "weight"...)
	for _, c := range cols {
		buf = append(buf, sep)
		buf = append(buf, c.Name...)
	}
	buf = append(buf, '\n')
	var batch [gatherRows]Edge
	for lo := 0; lo < n; lo += gatherRows {
		for i, e := range sel.gather(batch[:], lo) {
			buf = g.appendLabel(buf, e.Src)
			buf = append(buf, sep)
			buf = g.appendLabel(buf, e.Dst)
			buf = append(buf, sep)
			buf = appendWeight(buf, e.Weight)
			for _, c := range cols {
				buf = append(buf, sep)
				buf = c.Append(buf, sel.ID(lo+i))
			}
			buf = append(buf, '\n')
		}
		if len(buf) >= writeBlock {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// checkLabels returns a labelError when a node the selection touches
// has a label containing sep or a line break. The touched nodes are
// marked in a bitmap first and their labels then read in node order,
// once each, which walks the label storage front to back instead of
// hopping through it edge by edge. The error names the first unsafe
// label in edge order, as a writer stopping at it would.
func (s Selection) checkLabels(sep byte) error {
	g := s.G
	unsafe := false
	for w, word := range s.touched() {
		for ; word != 0 && !unsafe; word &= word - 1 {
			unsafe = unsafeLabel(g.labels[w<<6+bits.TrailingZeros64(word)], sep)
		}
	}
	if !unsafe {
		return nil
	}
	for i := range s.Len() {
		e := g.edges[s.ID(i)]
		for _, u := range [2]int32{e.Src, e.Dst} {
			if l := g.labels[u]; unsafeLabel(l, sep) {
				return &labelError{l, sep}
			}
		}
	}
	return nil
}

// unsafeLabel reports whether l contains sep or a line break.
func unsafeLabel(l string, sep byte) bool {
	for i := 0; i < len(l); i++ {
		if c := l[i]; c == sep || c == '\n' || c == '\r' {
			return true
		}
	}
	return false
}

// appendLabel appends node id's display label: its label, or its
// numeric ID when it has none.
func (g *Graph) appendLabel(buf []byte, id int32) []byte {
	if l := g.labels[id]; l != "" {
		return append(buf, l...)
	}
	return strconv.AppendInt(buf, int64(id), 10)
}

// appendWeight appends w exactly as strconv.AppendFloat(buf, w, 'g',
// -1, 64) does. A whole number in (0, 1e6) has the same spelling as
// the integer, which AppendInt writes several times faster; 'g' turns
// to exponent form at 1e6, and -0 keeps its sign, so both stay on the
// float path.
func appendWeight(buf []byte, w float64) []byte {
	if w > 0 && w < 1e6 && w == math.Trunc(w) {
		return strconv.AppendInt(buf, int64(w), 10)
	}
	return strconv.AppendFloat(buf, w, 'g', -1, 64)
}

// WriteCSV writes the canonical edge list as "src,dst,weight" lines with
// a header. Nodes without labels are written as their numeric ID.
func (g *Graph) WriteCSV(w io.Writer) error { return WriteEdgeRows(w, g.All(), ',') }

// ndjsonEdge is the wire form of one edge in the ndjson format.
type ndjsonEdge struct {
	Src    any      `json:"src"`
	Dst    any      `json:"dst"`
	Weight *float64 `json:"weight"`
}

// JSONLabel renders a decoded src/dst value as a node label. Strings
// pass through; numbers keep their literal spelling (json.Number).
// Shared by the ndjson reader and the daemon's JSON envelope.
func JSONLabel(v any) (string, error) {
	switch t := v.(type) {
	case string:
		return t, nil
	case json.Number:
		return t.String(), nil
	case nil:
		return "", fmt.Errorf("missing node field")
	default:
		return "", fmt.Errorf("node field must be a string or number, got %T", v)
	}
}

// readNDJSON parses newline-delimited JSON objects of the form
// {"src": ..., "dst": ..., "weight": n}. src and dst may be strings or
// numbers; blank lines are skipped.
func readNDJSON(r io.Reader, directed bool) (*Graph, error) {
	b := NewBuilder(directed)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var e ndjsonEdge
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad ndjson edge: %v", lineNo, err)
		}
		src, err := JSONLabel(e.Src)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: src: %v", lineNo, err)
		}
		dst, err := JSONLabel(e.Dst)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: dst: %v", lineNo, err)
		}
		if e.Weight == nil {
			return nil, fmt.Errorf("graph: line %d: missing weight", lineNo)
		}
		if err := b.AddEdgeLabels(src, dst, *e.Weight); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graph: line %d: %w (limit %d bytes)", lineNo+1, ErrLineTooLong, maxLineBytes)
		}
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	return b.Build(), nil
}

// writeNDJSON writes one {"src","dst","weight"} JSON object per
// selected edge. Records are byte-built into one buffer handed to w in
// 64 KiB blocks; labels that need escaping (or any non-ASCII content)
// fall back to encoding/json for exact escaping semantics.
func writeNDJSON(w io.Writer, sel Selection) error {
	g, n := sel.G, sel.Len()
	buf := make([]byte, 0, 2*writeBlock)
	var batch [gatherRows]Edge
	for lo := 0; lo < n; lo += gatherRows {
		for _, e := range sel.gather(batch[:], lo) {
			var err error
			buf = append(buf, `{"src":`...)
			if buf, err = g.appendJSONNode(buf, e.Src); err != nil {
				return err
			}
			buf = append(buf, `,"dst":`...)
			if buf, err = g.appendJSONNode(buf, e.Dst); err != nil {
				return err
			}
			buf = append(buf, `,"weight":`...)
			if buf, err = appendJSONFloat(buf, e.Weight); err != nil {
				return err
			}
			buf = append(buf, '}', '\n')
		}
		if len(buf) >= writeBlock {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendJSONNode appends node id's display label as a JSON string.
func (g *Graph) appendJSONNode(buf []byte, id int32) ([]byte, error) {
	if l := g.labels[id]; l != "" {
		return appendJSONLabel(buf, l)
	}
	buf = append(buf, '"')
	buf = strconv.AppendInt(buf, int64(id), 10)
	return append(buf, '"'), nil
}

// appendJSONLabel appends s as a JSON string. Plain printable ASCII
// (no quotes, backslashes or control characters) is appended verbatim;
// anything else goes through encoding/json. Output bytes therefore
// differ from the old json.Encoder writer for labels containing '<',
// '>' or '&' (no HTML escaping on the fast path) — equally valid JSON
// that decodes to the same string, which is the guarantee the
// round-trip tests pin.
func appendJSONLabel(buf []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			enc, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			return append(buf, enc...), nil
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), nil
}

// appendJSONFloat appends f as a JSON number in strconv's shortest
// 'g' form (encoding/json uses a slightly different float spelling;
// both parse back to the identical bits), rejecting the values JSON
// cannot represent — the same ones encoding/json rejects.
func appendJSONFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("graph: json: unsupported value: %v", f)
	}
	return appendWeight(buf, f), nil
}
