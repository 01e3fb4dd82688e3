package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/graph"
)

const testCSV = "a,b,10\na,c,9\nb,c,1\nc,d,8\nd,e,7\nc,e,2\nd,a,6\ne,b,5\n"

func writeTestCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIAllMethods drives the CLI over every registered method with
// default parameters — the acceptance criterion that `backbone -method
// <name>` works for each registry entry with no per-method dispatch.
func TestCLIAllMethods(t *testing.T) {
	in := writeTestCSV(t)
	for _, m := range repro.Methods() {
		t.Run(m.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			a := newApp()
			if err := a.run(context.Background(), []string{"-method", m.Name, in}, nil, &stdout, &stderr); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			// An empty backbone is legitimate at default parameters on a
			// tiny graph (df needs more edges per node to reach α = 0.05),
			// but the output must always parse back as an edge list.
			if stdout.Len() > 0 {
				if _, err := repro.ReadGraph(strings.NewReader(stdout.String()), repro.WithFormat("csv")); err != nil {
					t.Fatalf("%s: output not parseable as CSV: %v", m.Name, err)
				}
			}
			if !strings.Contains(stderr.String(), m.Name+" backbone") {
				t.Errorf("%s: summary missing from stderr: %q", m.Name, stderr.String())
			}
		})
	}
}

// TestCLIMethodFlags exercises each method's own parameter flags, again
// purely from the schema.
func TestCLIMethodFlags(t *testing.T) {
	in := writeTestCSV(t)
	for _, m := range repro.Methods() {
		for _, p := range m.Params {
			args := []string{"-method", m.Name}
			val := p.Default
			if p.Integer {
				args = append(args, "-"+p.Name, strconv.Itoa(int(val)))
			} else {
				args = append(args, "-"+p.Name, fmt.Sprintf("%g", val))
			}
			args = append(args, in)
			var stdout, stderr bytes.Buffer
			if err := newApp().run(context.Background(), args, nil, &stdout, &stderr); err != nil {
				t.Errorf("%s with -%s: %v", m.Name, p.Name, err)
			}
		}
	}
}

// TestCLIDefaultsRoundTrip checks that every schema default survives
// the flag generation: the generated flag's default value renders back
// to the parameter's declared default.
func TestCLIDefaultsRoundTrip(t *testing.T) {
	a := newApp()
	for _, m := range repro.Methods() {
		for _, p := range m.Params {
			f := a.fs.Lookup(p.Name)
			if f == nil {
				t.Errorf("%s: no generated flag -%s", m.Name, p.Name)
				continue
			}
			got, err := strconv.ParseFloat(f.DefValue, 64)
			if err != nil {
				t.Errorf("-%s default %q not numeric: %v", p.Name, f.DefValue, err)
				continue
			}
			if got != p.Default {
				t.Errorf("-%s flag default %v, schema default %v (method %s)", p.Name, got, p.Default, m.Name)
			}
		}
	}
}

// TestCLIKCoreK checks the kcore regression: k is its own integer flag,
// no longer smuggled through the float -threshold.
func TestCLIKCoreK(t *testing.T) {
	in := writeTestCSV(t)
	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-method", "kcore", "-k", "3", in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := repro.ReadGraph(strings.NewReader(stdout.String()), repro.WithFormat("csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Backbone(mustGraph(t), repro.WithMethod("kcore"), repro.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.Backbone.NumEdges() {
		t.Errorf("-k 3 kept %d edges, library says %d", got.NumEdges(), want.Backbone.NumEdges())
	}
	// -threshold belongs to nt, not kcore: explicit error, not silent reuse.
	if err := newApp().run(context.Background(), []string{"-method", "kcore", "-threshold", "3", in}, nil, &stdout, &stderr); err == nil {
		t.Error("kcore accepted -threshold")
	}
}

func mustGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := repro.ReadGraph(strings.NewReader(testCSV), repro.WithFormat("csv"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCLIInvalidCombos: flags a method does not declare, and size
// options on fixed-size methods, are explicit errors.
func TestCLIInvalidCombos(t *testing.T) {
	in := writeTestCSV(t)
	cases := [][]string{
		{"-method", "mst", "-top", "3", in},                // extract-only: no ranking
		{"-method", "mst", "-delta", "2", in},              // mst has no parameters
		{"-method", "df", "-delta", "2", in},               // delta is nc's, not df's
		{"-method", "nc", "-alpha", "0.1", in},             // alpha is df's, not nc's
		{"-method", "bogus", in},                           // unknown method
		{"-method", "nc", "-top", "2", "-frac", "0.5", in}, // mutually exclusive
		{"-method", "nc", "-frac", "1.5", in},              // fraction out of range
		{"-method", "nc", "-top", "0", in},                 // explicit zero is a script bug
		{"-method", "nc", "-top", "-3", in},                // negative size
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := newApp().run(context.Background(), args, nil, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted, want error", args[:len(args)-1])
		}
	}
}

// TestCLITopOverride: -top yields exact backbone sizes for every
// scoring method.
func TestCLITopOverride(t *testing.T) {
	in := writeTestCSV(t)
	for _, m := range repro.Methods() {
		if !m.CanScore() {
			continue
		}
		var stdout, stderr bytes.Buffer
		if err := newApp().run(context.Background(), []string{"-method", m.Name, "-top", "3", in}, nil, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		g, err := repro.ReadGraph(strings.NewReader(stdout.String()), repro.WithFormat("csv"))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 3 {
			t.Errorf("%s: -top 3 kept %d edges", m.Name, g.NumEdges())
		}
	}
}

// TestCLIHelp: -h prints usage and is not an error (main exits 0).
func TestCLIHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := newApp().run(context.Background(), []string{"-h"}, nil, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "methods:") {
		t.Errorf("usage text missing method list: %q", stderr.String())
	}
}

func TestCLIList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-list"}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, m := range repro.Methods() {
		if !strings.Contains(stdout.String(), m.Name) {
			t.Errorf("-list output missing method %q", m.Name)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	out := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(in, []byte("a,b,10\nb,c,9\nc,a,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-method", "nt", "-threshold", "5", "-o", out, in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := repro.ReadGraph(strings.NewReader(string(data)), repro.WithFormat("csv"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("threshold 5 kept %d edges, want 2", g.NumEdges())
	}
	if err := newApp().run(context.Background(), []string{filepath.Join(dir, "missing.csv")}, nil, &stdout, &stderr); err == nil {
		t.Error("missing input accepted")
	}
	if err := newApp().run(context.Background(), []string{"-method", "nc", "-parallel", "-"}, strings.NewReader(testCSV), &stdout, &stderr); err != nil {
		t.Errorf("stdin + parallel: %v", err)
	}
}

// TestCLIEval drives the -eval mode in each output encoding: the
// default aligned table with a ranking line, machine-readable csv, and
// a JSON report whose undefined criteria are null (never NaN).
func TestCLIEval(t *testing.T) {
	in := writeTestCSV(t)

	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-eval", in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"method", "coverage", "ranking:", "nc"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "evaluated") {
		t.Errorf("summary missing from stderr: %q", stderr.String())
	}

	stdout.Reset()
	if err := newApp().run(context.Background(), []string{"-eval", "-methods", "nc,df,mst", "-frac", "0.5", "-outformat", "csv", in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 { // header + three methods
		t.Fatalf("csv output has %d lines:\n%s", len(lines), stdout.String())
	}
	if !strings.HasPrefix(lines[0], "method,edges,share,coverage") {
		t.Errorf("csv header = %q", lines[0])
	}

	stdout.Reset()
	if err := newApp().run(context.Background(), []string{"-eval", "-methods", "nc", "-outformat", "json", in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	rep := &repro.EvalReport{}
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		t.Fatalf("json output does not decode: %v", err)
	}
	if len(rep.Methods) != 1 || rep.Methods[0].Method != "nc" {
		t.Fatalf("json report: %+v", rep.Methods)
	}
	if !strings.Contains(stdout.String(), `"stability": null`) {
		t.Errorf("undefined stability not null in CLI json:\n%s", stdout.String())
	}

	// -eval with a ride-along parameter no selected method declares, or
	// an unsupported output encoding, errors out.
	if err := newApp().run(context.Background(), []string{"-eval", "-methods", "mst", "-delta", "1", in}, nil, &stdout, &stderr); err == nil {
		t.Error("-eval accepted a ride-along no method declares")
	}
	if err := newApp().run(context.Background(), []string{"-eval", "-outformat", "ndjson", in}, nil, &stdout, &stderr); err == nil {
		t.Error("-eval accepted -outformat ndjson")
	}
	if err := newApp().run(context.Background(), []string{"-eval", "-top", "3", "-frac", "0.5", in}, nil, &stdout, &stderr); err == nil {
		t.Error("-eval accepted -top with -frac")
	}
	if err := newApp().run(context.Background(), []string{"-eval", "-top", "0", in}, nil, &stdout, &stderr); err == nil {
		t.Error("-eval accepted -top 0")
	}
}

// TestCLIEvalNextSnapshot: -next enables the stability criterion, and
// the next snapshot is aligned by node label — a next file listing the
// same network in a different row order (so its first-appearance node
// IDs all differ) must produce the identical stability values.
func TestCLIEvalNextSnapshot(t *testing.T) {
	in := writeTestCSV(t)
	dir := t.TempDir()
	next := filepath.Join(dir, "next.csv")
	if err := os.WriteFile(next, []byte("a,b,11\na,c,8\nb,c,2\nc,d,9\nd,e,6\nd,a,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The same snapshot with rows reversed: node IDs now differ from
	// the evaluated graph's, so an ID-keyed join without label
	// alignment would correlate unrelated pairs.
	nextShuffled := filepath.Join(dir, "next-shuffled.csv")
	if err := os.WriteFile(nextShuffled, []byte("d,a,5\nd,e,6\nc,d,9\nb,c,2\na,c,8\na,b,11\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	evalStability := func(nextPath string) map[string]float64 {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := newApp().run(context.Background(), []string{"-eval", "-methods", "nc,nt", "-frac", "0.5", "-next", nextPath, "-outformat", "json", in}, nil, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		rep := &repro.EvalReport{}
		if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, me := range rep.Methods {
			if me.Err != "" {
				t.Fatalf("%s: %s", me.Method, me.Err)
			}
			if math.IsNaN(float64(me.Stability)) {
				t.Errorf("%s: stability NaN despite -next", me.Method)
			}
			out[me.Method] = float64(me.Stability)
		}
		return out
	}
	ordered := evalStability(next)
	shuffled := evalStability(nextShuffled)
	for method, want := range ordered {
		if got := shuffled[method]; got != want {
			t.Errorf("%s: stability %v with shuffled next, %v ordered — label alignment broken", method, got, want)
		}
	}
}
