// Streaming, zero-allocation, parallel edge-list decoding.
//
// readEdgeList reads the input in chunks of up to readChunkSize bytes
// (never more than a sized input has left), splits chunks on line
// boundaries, and parses fields as []byte sub-slices of the chunk
// buffer — no per-line string, no per-edge []string; weights of plain
// decimal digits skip strconv. Chunks fan out to GOMAXPROCS shard
// parsers; their raw-edge buffers are merged back in input order,
// interning labels through the Builder's single map[string]int32 with
// no-copy lookups and arena-packed label storage, so the resulting
// Graph is bit-identical to the line-by-line serial reader (pinned by
// TestParallelReaderMatchesSerialOracle). Allocations follow the
// input: the edge buffer is sized from the first chunk's line density,
// the label index from the labels the first 4,096 rows bring, and
// labels grow with the nodes, which recur across lines.

package graph

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Codec tunables. Vars rather than consts so tests can shrink them to
// force chunk boundaries and the concurrent path on tiny inputs.
var (
	// readChunkSize is the target size of one parse unit.
	readChunkSize = 1 << 20
	// readWorkers overrides the shard-parser count (0 = GOMAXPROCS).
	readWorkers = 0
)

// rawEdge is one parsed data line: the label fields as offset ranges
// into the chunk buffer, the parsed weight, and the 1-based input line
// number for error reporting. Offsets instead of sub-slices keep the
// per-chunk edge buffers pointer-free, so the garbage collector never
// scans them.
type rawEdge struct {
	w                              float64
	line                           int64
	srcOff, srcEnd, dstOff, dstEnd int32
}

// chunkResult is the outcome of parsing one chunk: the chunk's raw
// edges plus the buffer their offsets index into.
type chunkResult struct {
	data  []byte
	edges []rawEdge
	err   error
}

// parseJob carries one chunk to a shard parser, with the channel its
// result must be delivered on (the merger consumes results in chunk
// order regardless of which worker finishes first).
type parseJob struct {
	data      []byte
	startLine int64
	out       chan chunkResult
}

var nlByte = []byte{'\n'}

// chunkReader cuts an io.Reader into chunks that end on line
// boundaries, carrying the trailing partial line over to the next
// chunk and tracking the line number each chunk starts at. A carried
// line that outgrows maxLineBytes fails fast with the same typed error
// and line number the serial reader reports.
type chunkReader struct {
	r io.Reader
	// sized is r when r knows how many bytes it has left, so no chunk
	// buffer outgrows the input.
	sized interface{ Len() int }
	carry []byte
	line  int64 // line number of the first line of the next chunk
	eof   bool
}

// next returns the next newline-terminated chunk (the final chunk may
// lack the terminator) and the line number of its first line. io.EOF
// signals the end of input.
func (c *chunkReader) next() ([]byte, int64, error) {
	for {
		if c.eof {
			if len(c.carry) == 0 {
				return nil, 0, io.EOF
			}
			data, start := c.carry, c.line
			c.carry = nil
			return data, start, nil
		}
		size := readChunkSize
		if c.sized != nil {
			// One byte past the end lets io.ReadFull report the end of
			// input together with the last bytes.
			size = min(size, c.sized.Len()+1)
		}
		buf := make([]byte, len(c.carry), len(c.carry)+size)
		copy(buf, c.carry)
		n, err := io.ReadFull(c.r, buf[len(buf):cap(buf)])
		buf = buf[:len(c.carry)+n]
		switch err {
		case nil:
		//lint:errdiscipline-ok io.ReadFull documents returning these sentinels unwrapped
		case io.EOF, io.ErrUnexpectedEOF:
			c.eof = true
		default:
			return nil, 0, fmt.Errorf("graph: read: %v", err)
		}
		i := bytes.LastIndexByte(buf, '\n')
		if i < 0 {
			// No complete line yet: the whole buffer is one growing
			// line. Fail as soon as it cannot possibly fit the cap.
			if len(buf) >= maxLineBytes && !c.eof {
				return nil, 0, fmt.Errorf("graph: line %d: %w (limit %d bytes)", c.line, ErrLineTooLong, maxLineBytes)
			}
			c.carry = buf
			continue
		}
		start := c.line
		c.line += int64(bytes.Count(buf[:i+1], nlByte))
		c.carry = append([]byte(nil), buf[i+1:]...)
		return buf[:i+1], start, nil
	}
}

// readEdgeList is the registered csv/tsv reader: the chunked codec
// described in the package comment. With one worker (or one CPU) it
// parses and merges inline; otherwise chunks fan out to shard parsers
// and merge deterministically in input order. Output and error classes
// are bit-identical to readEdgeListSerial, the test-only line-at-a-time
// oracle in serial_oracle_test.go.
func readEdgeList(r io.Reader, directed bool) (*Graph, error) {
	workers := readWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := NewBuilder(directed)
	var arena labelArena
	// Known-size inputs (bytes.Reader, strings.Reader, the daemon's
	// in-memory bodies) size each chunk buffer to the bytes left and
	// the edge buffer from the first chunk's line density.
	cr := &chunkReader{r: r, line: 1}
	totalBytes := 0
	if lr, ok := r.(interface{ Len() int }); ok {
		cr.sized, totalBytes = lr, lr.Len()
	}

	// First chunk up front: single-chunk inputs (small daemon bodies)
	// and single-worker environments skip the goroutine machinery.
	first, firstStart, err := cr.next()
	//lint:errdiscipline-ok chunkReader.next hands back io.EOF unwrapped, and this runs per chunk
	if err == io.EOF {
		return b.buildOwned(), nil
	}
	if err != nil {
		return nil, err
	}
	// rows is the input's expected row count until the first chunk has
	// sized the label index, and 0 after.
	rows := b.presize(totalBytes, first)
	merge := func(res chunkResult) error {
		// Edges first: a builder error on an earlier line outranks the
		// chunk's own parse error (serial readers fail in input order).
		err := cmp.Or(b.addRawEdges(&arena, &res, rows), res.err)
		rows = 0
		return err
	}
	if workers == 1 || (cr.eof && len(cr.carry) == 0) {
		for {
			if err := merge(parseChunk(first, firstStart)); err != nil {
				return nil, err
			}
			if first, firstStart, err = cr.next(); err != nil {
				//lint:errdiscipline-ok chunkReader.next hands back io.EOF unwrapped, and this runs per chunk
				if err == io.EOF {
					return b.buildOwned(), nil
				}
				return nil, err
			}
		}
	}

	done := make(chan struct{})
	jobs := make(chan parseJob, workers)
	ordered := make(chan chan chunkResult, 2*workers)
	producerExited := make(chan struct{})
	// On any return — early error included — stop the producer and wait
	// for it: it must not touch r (or the codec tunables) after
	// readEdgeList has returned.
	defer func() { close(done); <-producerExited }()

	go func() { // chunk producer
		defer close(producerExited)
		defer close(jobs)
		defer close(ordered)
		data, start, err := first, firstStart, error(nil)
		//lint:errdiscipline-ok chunkReader.next hands back io.EOF unwrapped, and this runs per chunk
		for err != io.EOF {
			out := make(chan chunkResult, 1)
			select {
			case ordered <- out:
			case <-done:
				return
			}
			if err != nil { // a read error takes its place in chunk order
				out <- chunkResult{err: err}
				return
			}
			select {
			case jobs <- parseJob{data: data, startLine: start, out: out}:
			case <-done:
				return
			}
			data, start, err = cr.next()
		}
	}()
	for w := 0; w < workers; w++ {
		go func() { // shard parser
			for j := range jobs {
				j.out <- parseChunk(j.data, j.startLine)
			}
		}()
	}
	for out := range ordered { // deterministic in-order merge
		if err := merge(<-out); err != nil {
			return nil, err
		}
	}
	return b.buildOwned(), nil
}

// parseChunk parses the data lines of one chunk into rawEdges. Line
// semantics mirror readEdgeListSerial exactly: whole-line trim, blank
// and '#' lines skipped, tab-preferred field splitting with per-field
// trim, digit-free weight on line 1 treated as a header row.
func parseChunk(data []byte, startLine int64) chunkResult {
	base := data
	edges := make([]rawEdge, 0, bytes.Count(data, nlByte)+1)
	line := startLine
	for len(data) > 0 {
		var ln []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, data = data[:i], data[i+1:]
		} else {
			ln, data = data, nil
		}
		cur := line
		line++
		if len(ln) >= maxLineBytes {
			return chunkResult{data: base, edges: edges, err: fmt.Errorf("graph: line %d: %w (limit %d bytes)", cur, ErrLineTooLong, maxLineBytes)}
		}
		ln = bytes.TrimSpace(ln)
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		src, dst, wf, nf := splitFields3(ln)
		if nf < 3 {
			return chunkResult{data: base, edges: edges, err: fmt.Errorf("graph: line %d: want 3 fields (src,dst,weight), got %d", cur, nf)}
		}
		w, ok := parseCount(wf)
		if !ok {
			var err error
			if w, err = strconv.ParseFloat(bstr(wf), 64); err != nil {
				if cur == 1 && !containsDigit(wf) {
					continue // header row: the weight field has no digits at all
				}
				return chunkResult{data: base, edges: edges, err: fmt.Errorf("graph: line %d: bad weight %q: %v", cur, wf, err)}
			}
		}
		srcOff, dstOff := byteOffset(base, src), byteOffset(base, dst)
		edges = append(edges, rawEdge{
			w: w, line: cur,
			srcOff: srcOff, srcEnd: srcOff + int32(len(src)),
			dstOff: dstOff, dstEnd: dstOff + int32(len(dst)),
		})
	}
	return chunkResult{data: base, edges: edges}
}

// parseCount converts a weight field of 1 to 15 ASCII digits — the
// integer counts the null models are defined on — without
// strconv.ParseFloat. Every such value is below 2^53, so the float64
// is exact and equal to what ParseFloat returns.
func parseCount(b []byte) (float64, bool) {
	var n uint64
	for _, c := range b {
		if c-'0' > 9 { // c-'0' wraps for bytes below '0'
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return float64(n), len(b) > 0 && len(b) <= 15
}

// byteOffset returns sub's offset within base. sub must be a sub-slice
// of base; empty fields map to the empty range [0, 0).
func byteOffset(base, sub []byte) int32 {
	if len(sub) == 0 {
		return 0
	}
	//lint:unsafezone-ok sub is a sub-slice of base (documented precondition), so both pointers land in one allocation and the difference is a plain offset
	return int32(uintptr(unsafe.Pointer(&sub[0])) - uintptr(unsafe.Pointer(&base[0])))
}

// splitFields3 splits a trimmed line the way the serial oracle's
// splitFields does — tabs preferred over commas over whitespace — but
// returns only the first three fields (as trimmed sub-slices) plus the
// total field count, without allocating.
func splitFields3(ln []byte) (f0, f1, f2 []byte, n int) {
	var sep byte
	switch {
	case bytes.IndexByte(ln, '\t') >= 0:
		sep = '\t'
	case bytes.IndexByte(ln, ',') >= 0:
		sep = ','
	default:
		return splitWhitespace3(ln)
	}
	n = bytes.Count(ln, []byte{sep}) + 1
	var rest []byte
	f0, rest = cutByte(ln, sep)
	f1, rest = cutByte(rest, sep)
	f2, _ = cutByte(rest, sep)
	return bytes.TrimSpace(f0), bytes.TrimSpace(f1), bytes.TrimSpace(f2), n
}

// cutByte slices b around the first occurrence of sep.
func cutByte(b []byte, sep byte) (before, after []byte) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// splitWhitespace3 is the whitespace branch of splitFields3, matching
// strings.Fields' unicode-aware separator semantics.
func splitWhitespace3(ln []byte) (f0, f1, f2 []byte, n int) {
	i := 0
	for i < len(ln) {
		for i < len(ln) {
			space, size := spaceAt(ln, i)
			if !space {
				break
			}
			i += size
		}
		if i >= len(ln) {
			break
		}
		start := i
		for i < len(ln) {
			space, size := spaceAt(ln, i)
			if space {
				break
			}
			i += size
		}
		switch n {
		case 0:
			f0 = ln[start:i]
		case 1:
			f1 = ln[start:i]
		case 2:
			f2 = ln[start:i]
		}
		n++
	}
	return
}

// spaceAt reports whether the rune starting at b[i] is whitespace and
// how many bytes it spans, with strings.Fields' exact semantics (ASCII
// fast path, unicode.IsSpace beyond).
func spaceAt(b []byte, i int) (bool, int) {
	c := b[i]
	if c < utf8.RuneSelf {
		return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r', 1
	}
	r, size := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), size
}

// containsDigit reports whether any byte of b is an ASCII digit — the
// header-row test: a line-1 weight field that fails to parse AND has
// no digits is a column title, anything else is a malformed data row.
func containsDigit(b []byte) bool {
	for _, c := range b {
		if '0' <= c && c <= '9' {
			return true
		}
	}
	return false
}

// bstr views b as a string without copying. The backing bytes must not
// be mutated afterwards; chunk buffers and arena blocks are written
// exactly once, so every bstr caller in this package satisfies that.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	//lint:unsafezone-ok write-once backing bytes (doc contract above) are never mutated after the view, and the string keeps them alive
	return unsafe.String(&b[0], len(b))
}

// labelArena packs node label bytes into large shared blocks, so a
// million unique labels cost dozens of allocations instead of a
// million small ones. Blocks are append-only: strings handed out keep
// pointing into retired blocks, which stay alive through them.
type labelArena struct {
	block []byte
}

const arenaBlockSize = 64 << 10

// intern copies b into the arena and returns it as a string.
func (a *labelArena) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if cap(a.block)-len(a.block) < len(b) {
		size := arenaBlockSize
		if len(b) > size {
			size = len(b)
		}
		a.block = make([]byte, 0, size)
	}
	off := len(a.block)
	a.block = append(a.block, b...)
	return bstr(a.block[off : off+len(b)])
}

// internLabel resolves a label to its node ID, creating the node on
// first appearance — AddNode's semantics (empty labels allowed but
// never indexed) with a no-copy map lookup and arena-backed storage.
func (b *Builder) internLabel(arena *labelArena, lb []byte) int32 {
	if len(lb) > 0 {
		if id, ok := b.index[string(lb)]; ok { // no-copy lookup
			return id
		}
	}
	id := int32(len(b.labels))
	s := arena.intern(lb)
	b.labels = append(b.labels, s)
	if s != "" {
		b.index[s] = id
	}
	return id
}

// indexSample is how many leading rows of an input size its label
// index (see Builder.sizeIndex).
const indexSample = 1 << 12

// addRawEdges interns each raw edge's labels in input order and
// appends the edge to the builder, reproducing AddEdgeLabels' node
// creation order and error text. With rows above 0 the chunk is the
// first of an input of about that many rows, and its first indexSample
// rows size the label index.
func (b *Builder) addRawEdges(arena *labelArena, res *chunkResult, rows float64) error {
	b.edges = slices.Grow(b.edges, len(res.edges))
	halfLabels := 0
	for i := range res.edges {
		if rows > 0 && i == indexSample/2 {
			halfLabels = len(b.labels)
		} else if rows > 0 && i == indexSample {
			b.sizeIndex(halfLabels, rows/(indexSample/2))
		}
		e := &res.edges[i]
		u := b.internLabel(arena, res.data[e.srcOff:e.srcEnd])
		v := b.internLabel(arena, res.data[e.dstOff:e.dstEnd])
		if err := b.AddEdge(int(u), int(v), e.w); err != nil {
			return fmt.Errorf("graph: line %d: %v", e.line, err)
		}
	}
	return nil
}
