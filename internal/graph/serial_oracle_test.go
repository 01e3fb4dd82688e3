package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// readEdgeListSerial parses delimited "src dst weight" lines into a
// Graph, one line at a time. Fields are tab-separated when the line
// contains a tab, else comma-separated when it contains a comma, else
// whitespace-separated — preferring tabs keeps labels containing commas
// intact in TSV files. Blank lines and '#' comments are skipped; CRLF
// line endings are handled; a header row is detected on line 1 by a
// digit-free weight field (a line-1 weight that fails to parse but
// does contain digits is a malformed data row, not a header).
//
// This is the reference implementation: the registered reader is the
// chunked codec in codec.go, whose output is pinned bit-identical to
// this one by the oracle tests in codec_test.go.
func readEdgeListSerial(r io.Reader, directed bool) (*Graph, error) {
	b := NewBuilder(directed)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 fields (src,dst,weight), got %d", lineNo, len(fields))
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			if lineNo == 1 && !hasDigit(fields[2]) {
				continue // header row: the weight field has no digits at all
			}
			return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
		}
		if err := b.AddEdgeLabels(fields[0], fields[1], w); err != nil {
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

func splitFields(line string) []string {
	// Tabs are the most deliberate separator: a TSV header or label may
	// legitimately contain commas, so check for tabs first.
	var parts []string
	switch {
	case strings.ContainsRune(line, '\t'):
		parts = strings.Split(line, "\t")
	case strings.ContainsRune(line, ','):
		parts = strings.Split(line, ",")
	default:
		return strings.Fields(line)
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// hasDigit is containsDigit for strings (the serial reader's form).
func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if '0' <= s[i] && s[i] <= '9' {
			return true
		}
	}
	return false
}
