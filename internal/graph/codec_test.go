package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// withCodecTuning shrinks the codec's chunk size and forces a worker
// count for the duration of one test, so chunk boundaries and the
// concurrent path are exercised on small inputs.
func withCodecTuning(t testing.TB, chunk, workers int) {
	t.Helper()
	oldChunk, oldWorkers := readChunkSize, readWorkers
	readChunkSize, readWorkers = chunk, workers
	t.Cleanup(func() { readChunkSize, readWorkers = oldChunk, oldWorkers })
}

// sameGraph fails the test unless a and b are bit-identical: same
// direction, same labels in the same ID order, same canonical edge
// slice with bit-equal weights.
func sameGraph(t *testing.T, a, b *Graph, ctx string) {
	t.Helper()
	if a.Directed() != b.Directed() {
		t.Fatalf("%s: directedness differs", ctx)
	}
	if !reflect.DeepEqual(a.Labels(), b.Labels()) {
		t.Fatalf("%s: labels differ:\n got %q\nwant %q", ctx, a.Labels(), b.Labels())
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: %d edges, want %d", ctx, len(ae), len(be))
	}
	for i := range ae {
		if ae[i].Src != be[i].Src || ae[i].Dst != be[i].Dst ||
			math.Float64bits(ae[i].Weight) != math.Float64bits(be[i].Weight) {
			t.Fatalf("%s: edge %d = %+v, want %+v", ctx, i, ae[i], be[i])
		}
	}
}

// compareWithOracle runs the chunked reader against the serial oracle
// on the same input and requires identical graphs or identical errors.
func compareWithOracle(t *testing.T, input string, directed bool, ctx string) {
	t.Helper()
	want, wantErr := readEdgeListSerial(strings.NewReader(input), directed)
	got, gotErr := readEdgeList(strings.NewReader(input), directed)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch:\n got %v\nwant %v", ctx, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text differs:\n got %q\nwant %q", ctx, gotErr, wantErr)
		}
		if errors.Is(wantErr, ErrLineTooLong) != errors.Is(gotErr, ErrLineTooLong) {
			t.Fatalf("%s: ErrLineTooLong class differs", ctx)
		}
		return
	}
	sameGraph(t, got, want, ctx)
}

// oracleCases are hand-picked inputs covering every branch the two
// readers share: separators, headers, comments, CRLF, malformed rows,
// self-loops, duplicate edges, empty fields, extra fields.
var oracleCases = []string{
	"",
	"\n\n\n",
	"# only a comment\n",
	"a,b,1\n",
	"a,b,1", // no trailing newline
	"src,dst,weight\na,b,1\nb,c,2\n",
	"src\tdst\tweight\nDoe, Jane\tRoe, Rich\t3\n",
	"a b 1\nb c 2.5\n",
	"a,b,1\r\nb,c,2\r\n",
	"a,b,1\n\n# mid comment\nb,c,2\n",
	"a,b,1\na,b,2\nb,a,4\n", // duplicate edges accumulate
	"a,b,1e-7\nb,c,6.02e23\nc,d,0.1\n",
	"x,y,0\n",            // zero weight ignored
	"a,a,1\n",            // self-loop error
	"a,b,-1\n",           // negative weight error
	"a,b\n",              // two fields
	"a,b,xyz\n",          // header-looking line 1 (digit-free): skipped
	"a,b,1x2\n",          // malformed line 1 weight WITH digits: error
	"a,b,1\nc,d,bogus\n", // bad weight on line 2
	"a,b,1\nc,d\n",       // short line 2
	",b,1\n,c,2\n",       // empty src labels (anonymous nodes)
	"a,,1\nb,,2\n",       // empty dst labels
	"a,b,1,extra,fields\n",
	"a , b , 1.5\n", // padded comma fields
	"a\tb\t2\nb\tc\t3\n",
	"1,2,3\n2,3,4\n", // numeric labels
	"é,ü,1\nü,æ,2\n", // multi-byte labels
	"a b 1\n",        // unicode space separators
	"a,b,NaN\n",
	"a,b,Inf\n",
	"src,dst,weight\n# comment\na,b,2\n",
	"a,b,007\nb,c,123456789012345\nc,d,9999999999999999\nd,e,+5\n", // count weights
}

// TestReadErrorKeepsChunkOrder: a reader failing after some chunks
// fails the read with its error, in chunk order, with either worker
// count; a bad row before the failure still outranks it.
func TestReadErrorKeepsChunkOrder(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "n%d,n%d,%d\n", i, i+1, i+1)
	}
	good := sb.String()
	rows := strings.SplitAfter(good, "\n")
	bad := strings.Join(rows[:100], "") + "a,b\n" + strings.Join(rows[100:], "")
	boom := errors.New("boom")
	for _, workers := range []int{1, 3} {
		withCodecTuning(t, 64, workers)
		for _, tc := range []struct{ in, want string }{
			{good, "graph: read: boom"},
			{"", "graph: read: boom"},
			{bad, "graph: line 101: want 3 fields (src,dst,weight), got 2"},
		} {
			_, err := readEdgeList(io.MultiReader(strings.NewReader(tc.in), iotest.ErrReader(boom)), false)
			if err == nil || err.Error() != tc.want {
				t.Errorf("workers=%d, %d input bytes: err = %v, want %s", workers, len(tc.in), err, tc.want)
			}
		}
	}
}

// TestParseCountMatchesParseFloat: the integer weight fast path takes
// exactly the fields of 1 to 15 ASCII digits, and gives ParseFloat's
// value on each.
func TestParseCountMatchesParseFloat(t *testing.T) {
	for _, in := range []string{"0", "7", "007", "42", "999999999999999", "123456789012345",
		"9999999999999999", "", "+5", "-0", "1e3", "1.0", " 1", "0x10", "١"} {
		got, ok := parseCount([]byte(in))
		want, err := strconv.ParseFloat(in, 64)
		wantOK := len(in) >= 1 && len(in) <= 15 && strings.Trim(in, "0123456789") == ""
		if ok != wantOK || ok && (err != nil || math.Float64bits(got) != math.Float64bits(want)) {
			t.Errorf("parseCount(%q) = %v, %v; want ok=%v and ParseFloat's %v (%v)", in, got, ok, wantOK, want, err)
		}
	}
}

// TestReadSizesLabelsToNodes: a sized input with many rows over few
// labels leaves label storage of the order of its nodes, not its
// lines, and an edge buffer of the order of its merged edges, whether
// labels arrive with a growing node (a Barabási–Albert body), are
// drawn from a fixed set (which sizes the label index from the first
// chunk), or every row comes twice.
func TestReadSizesLabelsToNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var drawn bytes.Buffer
	for i := 0; i < 60_000; i++ {
		u, v := rng.Intn(20_000), rng.Intn(19_999)
		if v >= u {
			v++
		}
		fmt.Fprintf(&drawn, "n%d,n%d,%d\n", u, v, 1+rng.Intn(9))
	}
	ba := benchCountsCSV(500, 100)
	inputs := map[string][]byte{"ba": ba, "drawn": drawn.Bytes(), "ba twice": append(slices.Clip(ba), ba...)}
	for name, data := range inputs {
		for _, chunk := range []int{1 << 20, 64 << 10} {
			withCodecTuning(t, chunk, 0)
			g, err := ReadGraph(bytes.NewReader(data), ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if n := g.NumNodes(); cap(g.labels) > 2*n {
				t.Errorf("%s, %d-byte chunks: %d nodes hold label capacity %d", name, chunk, n, cap(g.labels))
			}
			if m := g.NumEdges(); cap(g.edges) > m+m/8 {
				t.Errorf("%s, %d-byte chunks: %d edges hold edge capacity %d", name, chunk, m, cap(g.edges))
			}
			want, err := readEdgeListSerial(bytes.NewReader(data), false)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, g, want, fmt.Sprintf("%s, %d-byte chunks", name, chunk))
		}
	}
}

func TestParallelReaderMatchesSerialOracle(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, chunk := range []int{7, 23, 256, 1 << 20} {
			withCodecTuning(t, chunk, workers)
			for i, in := range oracleCases {
				for _, directed := range []bool{false, true} {
					ctx := fmt.Sprintf("case %d (chunk=%d workers=%d directed=%v) %q", i, chunk, workers, directed, in)
					compareWithOracle(t, in, directed, ctx)
				}
			}
		}
	}
}

// TestParallelReaderMatchesSerialOracleRandom drives both readers over
// generated inputs mixing separators, comments, blanks, bad rows and
// duplicate labels, across chunk sizes that force edges to straddle
// chunk boundaries.
func TestParallelReaderMatchesSerialOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	labels := []string{"a", "bb", "ccc", "node-x", "1", "42", "é"}
	seps := []string{",", "\t", " "}
	for trial := 0; trial < 60; trial++ {
		var sb strings.Builder
		if rng.Intn(3) == 0 {
			sb.WriteString("src,dst,weight\n")
		}
		lines := rng.Intn(80)
		for i := 0; i < lines; i++ {
			switch rng.Intn(12) {
			case 0:
				sb.WriteString("\n")
			case 1:
				sb.WriteString("# comment line\n")
			case 2: // occasionally malformed (both readers must agree)
				sb.WriteString("bad,row\n")
			default:
				sep := seps[rng.Intn(len(seps))]
				u := labels[rng.Intn(len(labels))]
				v := labels[rng.Intn(len(labels))]
				fmt.Fprintf(&sb, "%s%s%s%s%g\n", u, sep, v, sep, rng.Float64()*10)
			}
		}
		in := sb.String()
		for _, chunk := range []int{11, 64, 1 << 20} {
			withCodecTuning(t, chunk, 3)
			compareWithOracle(t, in, trial%2 == 0, fmt.Sprintf("trial %d chunk %d", trial, chunk))
		}
	}
}

// TestHeaderDetectionRegression pins the satellite bugfix: a malformed
// first data row whose weight field contains digits is an error, not a
// silently swallowed header.
func TestHeaderDetectionRegression(t *testing.T) {
	for name, read := range map[string]func(r *strings.Reader) (*Graph, error){
		"chunked": func(r *strings.Reader) (*Graph, error) { return readEdgeList(r, false) },
		"serial":  func(r *strings.Reader) (*Graph, error) { return readEdgeListSerial(r, false) },
	} {
		t.Run(name, func(t *testing.T) {
			// Digit-free weight field on line 1: a header, skipped.
			g, err := read(strings.NewReader("src,dst,weight\na,b,1\n"))
			if err != nil || g.NumEdges() != 1 {
				t.Fatalf("header skip: %v, %d edges", err, g.NumEdges())
			}
			// Malformed line-1 weight with digits: an error naming line 1.
			_, err = read(strings.NewReader("a,b,1x\nc,d,2\n"))
			if err == nil {
				t.Fatal("malformed first data row silently swallowed as header")
			}
			if !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "bad weight") {
				t.Errorf("error %q does not name line 1's bad weight", err)
			}
		})
	}
}

// TestChunkBoundaryLineNumbers forces errors onto lines that straddle
// chunk boundaries and checks the reported line numbers survive the
// chunked pipeline.
func TestChunkBoundaryLineNumbers(t *testing.T) {
	withCodecTuning(t, 16, 3)
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "n%d,n%d,1\n", i, i+1)
	}
	sb.WriteString("oops,row,bogus\n") // line 41
	_, err := readEdgeList(strings.NewReader(sb.String()), false)
	if err == nil || !strings.Contains(err.Error(), "line 41") {
		t.Fatalf("error %v does not name line 41", err)
	}
}

// TestLineTooLongAcrossChunks: an overlong line assembled from many
// chunk reads fails with the typed sentinel and its true line number
// without buffering the rest of the input.
func TestLineTooLongAcrossChunks(t *testing.T) {
	withCodecTuning(t, 1024, 3)
	long := "a,b,1\nc,d,2\n" + strings.Repeat("x", maxLineBytes+10) + ",y,3\n"
	_, err := readEdgeList(strings.NewReader(long), false)
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("got %v, want ErrLineTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
}

// TestChunkedReaderLargeInput runs a beyond-one-chunk input through
// the default configuration and cross-checks the oracle.
func TestChunkedReaderLargeInput(t *testing.T) {
	withCodecTuning(t, 1<<12, 4)
	var sb strings.Builder
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&sb, "n%d,n%d,%g\n", rng.Intn(4000), rng.Intn(4000), 1+rng.Float64())
	}
	compareWithOracle(t, sb.String(), false, "large input")
}

// FuzzReadEdgeListChunked fuzzes arbitrary bytes through both readers
// with chunk boundaries forced small; graphs and error text must agree.
func FuzzReadEdgeListChunked(f *testing.F) {
	for _, s := range oracleCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		oldChunk, oldWorkers := readChunkSize, readWorkers
		readChunkSize, readWorkers = 17, 3
		defer func() { readChunkSize, readWorkers = oldChunk, oldWorkers }()
		want, wantErr := readEdgeListSerial(bytes.NewReader(data), false)
		got, gotErr := readEdgeList(bytes.NewReader(data), false)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: got %v, want %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text differs:\n got %q\nwant %q", gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got.Labels(), want.Labels()) {
			t.Fatalf("labels differ: %q vs %q", got.Labels(), want.Labels())
		}
		ge, we := got.Edges(), want.Edges()
		if len(ge) != len(we) {
			t.Fatalf("%d edges, want %d", len(ge), len(we))
		}
		for i := range ge {
			if ge[i].Src != we[i].Src || ge[i].Dst != we[i].Dst ||
				math.Float64bits(ge[i].Weight) != math.Float64bits(we[i].Weight) {
				t.Fatalf("edge %d = %+v, want %+v", i, ge[i], we[i])
			}
		}
	})
}
