package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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

// writeEdgeList writes the canonical edge list with the given field
// separator, preceded by a header row. Weights use strconv's shortest
// exact representation, so written graphs read back bit-identically.
// A label containing the separator (or a newline) would corrupt the
// output and break that guarantee, so it is an explicit error — use
// ndjson (or a different separator) for such labels.
//
// Each line is byte-built into one reusable buffer (strconv.Append*
// instead of Fprintln/FormatFloat), so writing allocates O(1) rather
// than O(edges).
func (g *Graph) writeEdgeList(w io.Writer, sep byte) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString("src")
	bw.WriteByte(sep)
	bw.WriteString("dst")
	bw.WriteByte(sep)
	bw.WriteString("weight\n")
	unsafeChars := string([]byte{sep, '\n', '\r'})
	buf := make([]byte, 0, 64)
	for _, e := range g.edges {
		buf = buf[:0]
		var err error
		if buf, err = g.appendLabel(buf, e.Src, sep, unsafeChars); err != nil {
			return err
		}
		buf = append(buf, sep)
		if buf, err = g.appendLabel(buf, e.Dst, sep, unsafeChars); err != nil {
			return err
		}
		buf = append(buf, sep)
		buf = strconv.AppendFloat(buf, e.Weight, 'g', -1, 64)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendLabel appends node id's display label (label or numeric ID),
// rejecting labels that would corrupt a sep-delimited line.
func (g *Graph) appendLabel(buf []byte, id int32, sep byte, unsafeChars string) ([]byte, error) {
	l := g.labels[id]
	if l == "" {
		return strconv.AppendInt(buf, int64(id), 10), nil
	}
	if strings.ContainsAny(l, unsafeChars) {
		return nil, fmt.Errorf("graph: label %q contains the field separator %q; write this graph as ndjson instead", l, sep)
	}
	return append(buf, l...), nil
}

// WriteCSV writes the canonical edge list as "src,dst,weight" lines with
// a header. Nodes without labels are written as their numeric ID.
func (g *Graph) WriteCSV(w io.Writer) error { return g.writeEdgeList(w, ',') }

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

// writeNDJSON writes one {"src","dst","weight"} JSON object per edge.
// Records are byte-built into a reusable buffer; labels that need
// escaping (or any non-ASCII content) fall back to encoding/json for
// exact escaping semantics.
func (g *Graph) writeNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	buf := make([]byte, 0, 96)
	for _, e := range g.edges {
		buf = buf[:0]
		var err error
		buf = append(buf, `{"src":`...)
		if buf, err = appendJSONLabel(buf, g.label(e.Src)); err != nil {
			return err
		}
		buf = append(buf, `,"dst":`...)
		if buf, err = appendJSONLabel(buf, g.label(e.Dst)); err != nil {
			return err
		}
		buf = append(buf, `,"weight":`...)
		if buf, err = appendJSONFloat(buf, e.Weight); err != nil {
			return err
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	return strconv.AppendFloat(buf, f, 'g', -1, 64), nil
}
