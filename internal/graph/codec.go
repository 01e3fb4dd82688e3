// Streaming, zero-allocation, parallel edge-list decoding.
//
// readEdgeList reads the input in large chunks, splits chunks on line
// boundaries, and parses fields as []byte sub-slices of the chunk
// buffer — no per-line string, no per-edge []string. Chunks fan out to
// GOMAXPROCS shard parsers; their raw-edge buffers are merged back in
// input order, interning labels through the Builder's single
// map[string]int32 with no-copy lookups and arena-packed label storage,
// so the resulting Graph is bit-identical to the line-by-line serial
// reader (pinned by TestParallelReaderMatchesSerialOracle).

package graph

import (
	"bytes"
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
	r     io.Reader
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
		buf := make([]byte, len(c.carry), len(c.carry)+readChunkSize)
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
	// in-memory bodies) let us presize the label index and edge buffer
	// from the first chunk's line density, avoiding incremental map
	// growth — the dominant cost of million-edge ingests.
	totalBytes := 0
	if lr, ok := r.(interface{ Len() int }); ok {
		totalBytes = lr.Len()
	}
	cr := &chunkReader{r: r, line: 1}

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
	b.presize(totalBytes, first)
	if workers == 1 || (cr.eof && len(cr.carry) == 0) {
		for {
			res := parseChunk(first, firstStart)
			// Builder errors on pre-error lines outrank the parse error:
			// the serial oracle fails on the first bad line in input order.
			if err := b.addRawEdges(&arena, &res); err != nil {
				return nil, err
			}
			if res.err != nil {
				return nil, res.err
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
		data, start := first, firstStart
		for {
			out := make(chan chunkResult, 1)
			select {
			case ordered <- out:
			case <-done:
				return
			}
			select {
			case jobs <- parseJob{data: data, startLine: start, out: out}:
			case <-done:
				return
			}
			var err error
			if data, start, err = cr.next(); err != nil {
				//lint:errdiscipline-ok chunkReader.next hands back io.EOF unwrapped, and this runs per chunk
				if err != io.EOF {
					out := make(chan chunkResult, 1)
					out <- chunkResult{err: err}
					select {
					case ordered <- out:
					case <-done:
					}
				}
				return
			}
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
		res := <-out
		// Edges first: a builder error on an earlier line outranks the
		// chunk's own parse error (serial readers fail in input order).
		if err := b.addRawEdges(&arena, &res); err != nil {
			return nil, err
		}
		if res.err != nil {
			return nil, res.err
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
		w, err := strconv.ParseFloat(bstr(wf), 64)
		if err != nil {
			if cur == 1 && !containsDigit(wf) {
				continue // header row: the weight field has no digits at all
			}
			return chunkResult{data: base, edges: edges, err: fmt.Errorf("graph: line %d: bad weight %q: %v", cur, wf, err)}
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

// addRawEdges interns each raw edge's labels in input order and
// appends the edge to the builder, reproducing AddEdgeLabels' node
// creation order and error text.
func (b *Builder) addRawEdges(arena *labelArena, res *chunkResult) error {
	b.edges = slices.Grow(b.edges, len(res.edges))
	for i := range res.edges {
		e := &res.edges[i]
		u := b.internLabel(arena, res.data[e.srcOff:e.srcEnd])
		v := b.internLabel(arena, res.data[e.dstOff:e.dstEnd])
		if err := b.AddEdge(int(u), int(v), e.w); err != nil {
			return fmt.Errorf("graph: line %d: %v", e.line, err)
		}
	}
	return nil
}
