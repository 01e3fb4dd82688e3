// Command backbone extracts a network backbone from a CSV edge list.
//
// Usage:
//
//	backbone -method nc -delta 1.64 [-directed] [-o out.csv] edges.csv
//	backbone -method df -alpha 0.05 edges.csv
//	backbone -method hss -salience 0.5 edges.csv
//	backbone -method nt -threshold 10 edges.csv
//	backbone -method kcore -k 3 edges.csv
//	backbone -method mst edges.csv
//	backbone -method ds edges.csv
//	backbone -method nc -top 500 edges.csv        # fixed-size backbone
//	backbone -eval edges.csv                      # grade every method (report)
//	backbone -eval -methods nc,df -frac 0.05 edges.csv
//	backbone -convert edges.csv                   # edges.bbg: binary, mmap-loadable
//	backbone -convert -graphdir /var/graphs edges.csv
//	backbone -method nc edges.bbg                 # mmap-loads, no re-parse
//	backbone -list                                # show registered methods
//
// -eval switches the command from extraction to evaluation: every
// registered method (or the -methods subset) is cut to one common
// backbone size (-top / -frac, default the top 10% of edges) and graded
// under the paper's criteria — coverage always; stability when -next
// names a second edge list (the t+1 observation of the same network).
// The report renders as an aligned table, csv, or json (-outformat).
//
// The method list, per-method flags and validation are generated from
// the method registry: adding an algorithm anywhere in the module is a
// single Register call and it appears here with its parameters. Flags
// that the selected method does not declare are rejected rather than
// silently ignored.
//
// The input is an edge list in any registered graph format — csv
// (comma, tab or space separated; '#' comments and a header row are
// skipped), tsv, ndjson, or the binary bbg container — optionally
// gzip-compressed; the format is sniffed from the content unless
// -format names one. A file named *.bbg is memory-mapped instead of
// parsed, so start-up cost is independent of graph size; -convert
// produces such a file from any readable input, writing it next to the
// input (extension swapped to .bbg), to -o, or — with -graphdir — to
// <dir>/<sha256-of-input>.bbg, the name the backboned daemon resolves
// for its own mmap fast path. The backbone is
// written to -o (default stdout) in the -outformat encoding (default:
// inferred from the -o extension, else csv), and a summary goes to
// stderr.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/binfmt"
)

// errFlagParse marks parse failures the FlagSet has already reported
// to stderr, so main must not print them a second time.
var errFlagParse = errors.New("invalid flags")

func main() {
	// SIGINT/SIGTERM cancel the run, whatever the mode: scoring stops at
	// its next checkpoint and an -o file is never published half-written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := newApp().run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h / -help: usage already printed, clean exit.
	case errors.Is(err, errFlagParse):
		os.Exit(2) // the FlagSet already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, "backbone:", err)
		os.Exit(1)
	}
}

// app holds the registry-generated flag set. Shared flags are fixed;
// one flag per distinct parameter name is generated from the method
// schemas, and after parsing each explicitly set parameter flag is
// checked against the selected method's schema.
type app struct {
	fs       *flag.FlagSet
	method   *string
	directed *bool
	top      *int
	frac     *float64
	out      *string
	format   *string
	outfmt   *string
	list     *bool
	eval     *bool
	methods  *string
	next     *string
	convert  *bool
	graphdir *string
	// paramFlags maps parameter name -> parsed value holder; integer
	// parameters get their own holder so -k renders and parses as int.
	floatFlags map[string]*float64
	intFlags   map[string]*int
}

func newApp() *app {
	a := &app{
		fs:         flag.NewFlagSet("backbone", flag.ContinueOnError),
		floatFlags: map[string]*float64{},
		intFlags:   map[string]*int{},
	}
	a.method = a.fs.String("method", "nc", "backbone method: "+strings.Join(methodNames(), ", "))
	a.directed = a.fs.Bool("directed", false, "treat the edge list as directed")
	a.top = a.fs.Int("top", 0, "keep exactly this many top-ranked edges (overrides per-method thresholds)")
	a.frac = a.fs.Float64("frac", 0, "keep this share (0..1] of top-ranked edges")
	a.fs.Bool("parallel", false, "deprecated and ignored: tables of 4096+ edges are scored on every CPU")
	a.out = a.fs.String("o", "", "output file (default stdout)")
	a.format = a.fs.String("format", "", "input format: "+strings.Join(formatNames(), ", ")+" (default: sniffed from content)")
	a.outfmt = a.fs.String("outformat", "", "output format (default: inferred from the -o extension, else csv)")
	a.list = a.fs.Bool("list", false, "list registered methods and their parameters, then exit")
	a.eval = a.fs.Bool("eval", false, "evaluate methods under the paper's criteria instead of extracting one backbone")
	a.methods = a.fs.String("methods", "", "comma-separated method subset for -eval (default: every registered method)")
	a.next = a.fs.String("next", "", "edge list of the next observation (enables the -eval stability criterion)")
	a.convert = a.fs.Bool("convert", false, "convert the input to the binary .bbg container and exit")
	a.graphdir = a.fs.String("graphdir", "", "with -convert: write <dir>/<sha256-of-input>.bbg (the backboned -graphdir naming)")

	// Generate one flag per distinct parameter name across all
	// registered methods, annotating which method uses it for what.
	usage := map[string][]string{}
	schema := map[string]repro.Param{}
	var order []string
	for _, m := range repro.Methods() {
		for _, p := range m.Params {
			if _, ok := schema[p.Name]; !ok {
				schema[p.Name] = p
				order = append(order, p.Name)
			}
			usage[p.Name] = append(usage[p.Name], fmt.Sprintf("%s: %s", m.Name, p.Desc))
		}
	}
	sort.Strings(order)
	for _, name := range order {
		p := schema[name]
		desc := strings.Join(usage[name], "; ")
		if p.Integer {
			a.intFlags[name] = a.fs.Int(name, int(p.Default), desc)
		} else {
			a.floatFlags[name] = a.fs.Float64(name, p.Default, desc)
		}
	}

	a.fs.Usage = func() {
		w := a.fs.Output()
		fmt.Fprintln(w, "usage: backbone [flags] edges.csv (use - for stdin)")
		fmt.Fprintln(w, "\nflags:")
		a.fs.PrintDefaults()
		fmt.Fprintln(w, "\nmethods:")
		fmt.Fprint(w, methodList())
	}
	return a
}

// formatNames returns the registered graph I/O format names.
func formatNames() []string {
	var names []string
	for _, f := range repro.Formats() {
		names = append(names, f.Name)
	}
	return names
}

// methodNames returns the registered method names in registry order.
func methodNames() []string {
	var names []string
	for _, m := range repro.Methods() {
		names = append(names, m.Name)
	}
	return names
}

// methodList renders the registry as the CLI usage text.
func methodList() string {
	var b strings.Builder
	for _, m := range repro.Methods() {
		fmt.Fprintf(&b, "  %-12s %s — %s\n", m.Name, m.Title, m.Desc)
		for _, p := range m.Params {
			if p.Integer {
				fmt.Fprintf(&b, "               -%s (default %d): %s\n", p.Name, int(p.Default), p.Desc)
			} else {
				fmt.Fprintf(&b, "               -%s (default %g): %s\n", p.Name, p.Default, p.Desc)
			}
		}
	}
	return b.String()
}

// options translates the parsed flags into pipeline options for the
// selected method, rejecting explicitly set flags the method's schema
// does not declare.
func (a *app) options() ([]repro.Option, error) {
	m, err := repro.LookupMethod(*a.method)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	a.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	opts := []repro.Option{repro.WithMethod(m.Name)}
	for name := range set {
		_, isFloat := a.floatFlags[name]
		_, isInt := a.intFlags[name]
		if !isFloat && !isInt {
			continue // shared flag, not a method parameter
		}
		if _, ok := m.Param(name); !ok {
			return nil, fmt.Errorf("method %q does not take -%s (its parameters: %s)", m.Name, name, paramNames(m))
		}
		if isInt {
			opts = append(opts, repro.WithParam(name, float64(*a.intFlags[name])))
		} else {
			opts = append(opts, repro.WithParam(name, *a.floatFlags[name]))
		}
	}
	shared, err := a.sharedRunOpts(set)
	if err != nil {
		return nil, err
	}
	return append(opts, shared...), nil
}

// sharedRunOpts validates and translates the pruning flags
// shared by the extraction and evaluation modes — one copy of the
// -top/-frac rules for both.
func (a *app) sharedRunOpts(set map[string]bool) ([]repro.Option, error) {
	var opts []repro.Option
	if set["top"] && set["frac"] {
		return nil, fmt.Errorf("-top and -frac are mutually exclusive")
	}
	// Fixed-size methods reject these inside the pipeline; no need to
	// duplicate that rule here.
	if set["top"] {
		if *a.top <= 0 {
			return nil, fmt.Errorf("-top %d: must be positive", *a.top)
		}
		opts = append(opts, repro.WithTopK(*a.top))
	}
	if set["frac"] {
		opts = append(opts, repro.WithTopFraction(*a.frac))
	}
	return opts, nil
}

// evalOptions assembles the evaluation option set: the method subset,
// the shared pruning flags (same rules as extraction mode,
// via sharedRunOpts), and every explicitly set parameter flag as a
// lenient ride-along (the engine validates that at least one selected
// method declares it).
func (a *app) evalOptions() ([]repro.Option, error) {
	var opts []repro.Option
	set := map[string]bool{}
	a.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *a.methods != "":
		var names []string
		for _, name := range strings.Split(*a.methods, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		opts = append(opts, repro.WithMethods(names...))
	case set["method"]:
		opts = append(opts, repro.WithMethods(*a.method))
	}
	for name := range set {
		switch {
		case a.intFlags[name] != nil:
			opts = append(opts, repro.WithParam(name, float64(*a.intFlags[name])))
		case a.floatFlags[name] != nil:
			opts = append(opts, repro.WithParam(name, *a.floatFlags[name]))
		}
	}
	shared, err := a.sharedRunOpts(set)
	if err != nil {
		return nil, err
	}
	return append(opts, shared...), nil
}

// evalOutFormat resolves the -eval report encoding: an explicit
// -outformat must be table, csv or json; without one the -o extension
// decides (.json → json, .csv → csv), defaulting to the aligned table —
// mirroring the extraction mode's extension inference.
func (a *app) evalOutFormat() (string, error) {
	switch *a.outfmt {
	case "table", "csv", "json":
		return *a.outfmt, nil
	case "":
		switch {
		case strings.HasSuffix(*a.out, ".json"):
			return "json", nil
		case strings.HasSuffix(*a.out, ".csv"):
			return "csv", nil
		}
		return "table", nil
	default:
		return "", fmt.Errorf("-eval supports -outformat table, csv or json (got %q)", *a.outfmt)
	}
}

// runEval grades the registered methods on g and renders the report to
// -o (default stdout) in the pre-validated format (table, csv or
// json).
func (a *app) runEval(ctx context.Context, g *repro.Graph, opts []repro.Option, format string, readOpts []repro.IOOption, stdout, stderr io.Writer) error {
	if *a.next != "" {
		f, err := os.Open(*a.next)
		if err != nil {
			return err
		}
		defer f.Close()
		next, err := repro.ReadGraph(f, readOpts...)
		if err != nil {
			return fmt.Errorf("-next %s: %w", *a.next, err)
		}
		// The two files assign node IDs in their own first-appearance
		// order; the stability join compares by ID, so realign the next
		// snapshot onto the evaluated graph's label space.
		opts = append(opts, repro.WithNextSnapshot(repro.AlignNodes(g, next)))
	}

	rep, err := repro.CompareContext(ctx, g, opts...)
	if err != nil {
		return err
	}
	err = writeOutput(ctx, *a.out, stdout, func(w io.Writer) error {
		switch format {
		case "table":
			_, err := io.WriteString(w, renderEvalTable(rep))
			return err
		case "csv":
			return writeEvalCSV(w, rep)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "evaluated %d methods on %d nodes / %d edges (target %d edges, %d scored, %v)\n",
		len(rep.Methods), rep.Nodes, rep.Edges, rep.TargetEdges, rep.ScoredMethods,
		time.Duration(rep.DurationMs)*time.Millisecond)
	return nil
}

// evalCell formats one criterion value; NaN renders as the paper's n/a.
func evalCell(f repro.Float) string {
	if v := float64(f); !math.IsNaN(v) {
		return fmt.Sprintf("%.3f", v)
	}
	return "n/a"
}

var evalHeader = []string{"method", "edges", "share", "coverage", "stability", "recovery", "quality", "composite", "ms"}

// evalRows flattens the report into the shared table/csv cell grid.
func evalRows(rep *repro.EvalReport) [][]string {
	rows := make([][]string, 0, len(rep.Methods))
	for _, me := range rep.Methods {
		if me.Err != "" {
			rows = append(rows, []string{me.Method, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a",
				strconv.FormatInt(me.DurationMs, 10) + "  (" + me.Err + ")"})
			continue
		}
		rows = append(rows, []string{
			me.Method, strconv.Itoa(me.Edges), evalCell(me.EdgeShare),
			evalCell(me.Coverage), evalCell(me.Stability), evalCell(me.Recovery),
			evalCell(me.Quality), evalCell(me.Composite), strconv.FormatInt(me.DurationMs, 10),
		})
	}
	return rows
}

// renderEvalTable draws the aligned evaluation grid plus the ranking.
func renderEvalTable(rep *repro.EvalReport) string {
	rows := append([][]string{evalHeader}, evalRows(rep)...)
	widths := make([]int, len(evalHeader))
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "evaluation — %d nodes, %d edges, rankable methods cut to %d edges\n",
		rep.Nodes, rep.Edges, rep.TargetEdges)
	for ri, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "ranking: %s\n", strings.Join(rep.Ranking, " > "))
	return b.String()
}

// writeEvalCSV emits the grid as machine-readable csv: NaN cells
// empty, plus a trailing error column so consumers can tell an
// infeasible method ("n/a") from a genuine zero-edge backbone.
func writeEvalCSV(w io.Writer, rep *repro.EvalReport) error {
	if _, err := fmt.Fprintln(w, strings.Join(evalHeader, ",")+",error"); err != nil {
		return err
	}
	for _, me := range rep.Methods {
		cell := func(f repro.Float) string {
			if v := float64(f); !math.IsNaN(v) {
				return strconv.FormatFloat(v, 'g', -1, 64)
			}
			return ""
		}
		errCell := strings.ReplaceAll(strings.ReplaceAll(me.Err, "\n", " "), ",", ";")
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%s,%s,%s,%s,%d,%s\n",
			me.Method, me.Edges, cell(me.EdgeShare), cell(me.Coverage), cell(me.Stability),
			cell(me.Recovery), cell(me.Quality), cell(me.Composite), me.DurationMs, errCell); err != nil {
			return err
		}
	}
	return nil
}

// runConvert parses the input edge list (any registered format) and
// writes it as a binary .bbg container — the file the .bbg fast path
// here and the daemon's -graphdir memory-map instead of re-parsing.
// The destination is -graphdir/<sha256-of-input>.bbg when -graphdir is
// set (the digest backboned computes over a request body, so a
// converted file is found by the daemon without further bookkeeping),
// else -o, else the input path with its extension swapped to .bbg.
func (a *app) runConvert(ctx context.Context, stdin io.Reader, stderr io.Writer) error {
	path := a.fs.Arg(0)
	in := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	// The whole input is buffered: -graphdir names the file after the
	// raw byte digest, and every other case re-reads cheaply anyway.
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	readOpts := []repro.IOOption{repro.WithDirected(*a.directed)}
	if *a.format != "" {
		readOpts = append(readOpts, repro.WithFormat(*a.format))
	}
	g, err := repro.ReadGraph(bytes.NewReader(data), readOpts...)
	if err != nil {
		return err
	}

	dst := *a.out
	switch {
	case *a.graphdir != "":
		if dst != "" {
			return fmt.Errorf("-o and -graphdir are mutually exclusive")
		}
		if err := os.MkdirAll(*a.graphdir, 0o755); err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		dst = filepath.Join(*a.graphdir, hex.EncodeToString(sum[:])+".bbg")
	case dst == "":
		if path == "-" {
			return fmt.Errorf("-convert from stdin needs -o or -graphdir to name the output")
		}
		dst = strings.TrimSuffix(path, filepath.Ext(path)) + ".bbg"
	}

	err = writeOutput(ctx, dst, nil, func(w io.Writer) error {
		return repro.WriteGraph(w, g, repro.WithFormat("bbg"))
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "converted: %d nodes, %d edges -> %s (%d bytes)\n",
		g.NumNodes(), g.NumEdges(), dst, info.Size())
	return nil
}

// writeOutput writes one run's output through write: to stdout when
// dst is "", else to a temporary file that replaces dst only once the
// write succeeded and ctx is still live. Sync and close errors count:
// a short write to a full disk must not exit 0 with a truncated file,
// and a failed or cancelled write leaves the previous dst, if any,
// intact and no temporary file behind.
func writeOutput(ctx context.Context, dst string, stdout io.Writer, write func(io.Writer) error) error {
	if dst == "" {
		return write(stdout)
	}
	f, commit, abort, err := atomicCreate(dst)
	if err != nil {
		return err
	}
	defer abort()
	err = write(f)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		err = commit()
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", dst, err)
	}
	return nil
}

// atomicCreate opens a temporary file next to dst for writing. commit
// fsyncs, closes and atomically renames it over dst, so a crash, kill
// or full disk mid-write never leaves a torn dst behind — readers
// (including a backboned -graphdir daemon mapping the file while it is
// replaced) see the old bytes or the new ones, nothing in between.
// abort discards the temporary file; it is a no-op after a successful
// commit, so callers just defer it.
func atomicCreate(dst string) (f *os.File, commit func() error, abort func(), err error) {
	dir, base := filepath.Split(dst)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return nil, nil, nil, err
	}
	committed := false
	commit = func() error {
		if err := tmp.Sync(); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		// CreateTemp opens 0600; published outputs get the usual mode.
		if err := os.Chmod(tmp.Name(), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), dst); err != nil {
			return err
		}
		committed = true
		return nil
	}
	abort = func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}
	return tmp, commit, abort, nil
}

func paramNames(m *repro.Method) string {
	if len(m.Params) == 0 {
		return "none"
	}
	var names []string
	for _, p := range m.Params {
		names = append(names, "-"+p.Name)
	}
	return strings.Join(names, ", ")
}

// run executes one command line under ctx; cancelling ctx stops the run
// and publishes no output file.
func (a *app) run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	a.fs.SetOutput(stderr)
	if err := a.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if *a.list {
		fmt.Fprint(stdout, methodList())
		return nil
	}
	if a.fs.NArg() != 1 {
		a.fs.Usage()
		return fmt.Errorf("expected exactly one input file (use - for stdin)")
	}
	if *a.graphdir != "" && !*a.convert {
		return fmt.Errorf("-graphdir only applies to -convert")
	}
	if *a.convert {
		if *a.eval {
			return fmt.Errorf("-convert and -eval are mutually exclusive")
		}
		return a.runConvert(ctx, stdin, stderr)
	}

	// Validate the flag combination — and, for -eval, the report
	// encoding — before touching the input.
	var opts []repro.Option
	var evalFormat string
	{
		var err error
		if *a.eval {
			if evalFormat, err = a.evalOutFormat(); err != nil {
				return err
			}
			opts, err = a.evalOptions()
		} else {
			opts, err = a.options()
		}
		if err != nil {
			return err
		}
	}

	readOpts := []repro.IOOption{repro.WithDirected(*a.directed)}
	if *a.format != "" {
		readOpts = append(readOpts, repro.WithFormat(*a.format))
	}
	var g *repro.Graph
	if path := a.fs.Arg(0); path != "-" && strings.HasSuffix(path, ".bbg") &&
		(*a.format == "" || *a.format == "bbg") {
		// Binary container: mmap it instead of parsing. The mapping must
		// outlive every use of g, so Close is deferred past the output
		// write below; the file header decides directedness.
		bf, err := binfmt.Open(path)
		if err != nil {
			return err
		}
		defer bf.Close()
		g = bf.Graph()
	} else {
		in := stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		parsed, err := repro.ReadGraph(in, readOpts...)
		if err != nil {
			return err
		}
		g = parsed
	}

	if *a.eval {
		return a.runEval(ctx, g, opts, evalFormat, readOpts, stdout, stderr)
	}

	res, sel, err := repro.SelectContext(ctx, g, opts...)
	if err != nil {
		return err
	}
	var writeOpts []repro.IOOption
	switch {
	case *a.outfmt != "":
		writeOpts = append(writeOpts, repro.WithFormat(*a.outfmt))
	case *a.out != "":
		// Infer the encoding from the output path when it names a
		// registered extension; plain csv otherwise.
		if _, err := repro.LookupFormat(*a.out); err == nil {
			writeOpts = append(writeOpts, repro.WithFormat(*a.out))
		}
	}
	// Compress when either the output path or the explicit format asks
	// for it (-o out.csv.gz, -outformat csv.gz).
	if strings.HasSuffix(*a.out, ".gz") || strings.HasSuffix(*a.outfmt, ".gz") {
		writeOpts = append(writeOpts, repro.WithGzip())
	}
	err = writeOutput(ctx, *a.out, stdout, func(w io.Writer) error {
		return repro.WriteSelection(w, sel, writeOpts...)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "input: %d nodes, %d edges; %s backbone: %d edges, %d non-isolated nodes (node coverage %.1f%%) in %v\n",
		g.NumNodes(), g.NumEdges(), res.Method, sel.Len(), sel.NumConnected(),
		100*res.NodeCoverage, res.Duration.Round(time.Microsecond))
	return nil
}
