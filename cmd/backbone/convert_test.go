package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIConvertThenRun: -convert writes the binary twin next to the
// input, and running on the .bbg (mmap-loaded, never parsed) produces
// byte-identical output to running on the text original.
func TestCLIConvertThenRun(t *testing.T) {
	in := writeTestCSV(t)

	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-convert", in}, nil, &stdout, &stderr); err != nil {
		t.Fatalf("-convert: %v", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-convert wrote to stdout: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "converted:") {
		t.Fatalf("missing conversion summary: %q", stderr.String())
	}
	bbg := strings.TrimSuffix(in, ".csv") + ".bbg"
	if _, err := os.Stat(bbg); err != nil {
		t.Fatalf("expected %s: %v", bbg, err)
	}

	var fromCSV, fromBBG, errbuf bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-method", "nc", "-delta", "1.0", in}, nil, &fromCSV, &errbuf); err != nil {
		t.Fatal(err)
	}
	if err := newApp().run(context.Background(), []string{"-method", "nc", "-delta", "1.0", bbg}, nil, &fromBBG, &errbuf); err != nil {
		t.Fatal(err)
	}
	if fromCSV.String() != fromBBG.String() {
		t.Fatalf("backbone from .bbg differs:\n%s\nvs\n%s", fromBBG.String(), fromCSV.String())
	}
}

// TestCLIConvertGraphdir: -graphdir names the output after the sha256
// of the raw input bytes — the digest backboned computes over a
// request body carrying the same edge list.
func TestCLIConvertGraphdir(t *testing.T) {
	in := writeTestCSV(t)
	dir := filepath.Join(t.TempDir(), "graphs")

	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-convert", "-graphdir", dir, in}, nil, &stdout, &stderr); err != nil {
		t.Fatalf("-convert -graphdir: %v", err)
	}
	sum := sha256.Sum256([]byte(testCSV))
	want := filepath.Join(dir, hex.EncodeToString(sum[:])+".bbg")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("expected %s: %v", want, err)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Fatalf("summary does not name the output: %q", stderr.String())
	}
}

// TestAtomicCreateCommitAndAbort pins the crash-safe output contract:
// writes land in a same-directory temp file; only commit publishes
// them (fsync + rename over dst), and an aborted write leaves both the
// old dst bytes and the directory listing untouched.
func TestAtomicCreateCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "out.bbg")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	f, _, abort, err := atomicCreate(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn"); err != nil {
		t.Fatal(err)
	}
	abort()
	if got, err := os.ReadFile(dst); err != nil || string(got) != "old" {
		t.Fatalf("dst after abort = %q, %v; want old bytes intact", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("abort left temp residue: %v", entries)
	}

	f, commit, abort, err := atomicCreate(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("new"); err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	abort() // after commit this must be a no-op
	if got, err := os.ReadFile(dst); err != nil || string(got) != "new" {
		t.Fatalf("dst after commit = %q, %v; want new bytes", got, err)
	}
	if fi, err := os.Stat(dst); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("dst mode = %v, %v; want 0644", fi.Mode(), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("commit left temp residue: %v", entries)
	}
}

// TestCancelledRunPublishesNothing: a run whose context is cancelled,
// before it starts or in the middle of writing its output, fails with
// context.Canceled and leaves neither the -o file nor a temporary file.
func TestCancelledRunPublishesNothing(t *testing.T) {
	in := writeTestCSV(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-method", "nc"},
		{"-eval", "-methods", "nc,mst"},
		{"-convert"},
	} {
		dir := t.TempDir()
		out := filepath.Join(dir, "out")
		var stdout, stderr bytes.Buffer
		err := newApp().run(ctx, append(args, "-o", out, in), nil, &stdout, &stderr)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", args, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%v: cancelled run left %v", args, entries)
		}
	}

	// Ctrl-C while the output is being written.
	dir := t.TempDir()
	dst := filepath.Join(dir, "out.csv")
	ctx, cancel = context.WithCancel(context.Background())
	err := writeOutput(ctx, dst, nil, func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b,1\n")
		cancel()
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mid-write: err = %v, want context.Canceled", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("cancelled mid-write left %v", entries)
	}
}

// TestCLIConvertLeavesNoTempResidue: a successful -convert -graphdir
// publishes exactly the digest-named file.
func TestCLIConvertLeavesNoTempResidue(t *testing.T) {
	in := writeTestCSV(t)
	dir := filepath.Join(t.TempDir(), "graphs")
	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-convert", "-graphdir", dir, in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".bbg") {
		t.Fatalf("graphdir listing = %v, want exactly one .bbg", entries)
	}
}

// TestCLIConvertStdin: stdin input has no path to derive a name from,
// so -o (or -graphdir) is mandatory; with -o it converts normally.
func TestCLIConvertStdin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := newApp().run(context.Background(), []string{"-convert", "-"}, strings.NewReader(testCSV), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-o or -graphdir") {
		t.Fatalf("err = %v, want the naming requirement", err)
	}

	out := filepath.Join(t.TempDir(), "out.bbg")
	stderr.Reset()
	if err := newApp().run(context.Background(), []string{"-convert", "-o", out, "-"}, strings.NewReader(testCSV), &stdout, &stderr); err != nil {
		t.Fatalf("-convert -o from stdin: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

// TestCLIConvertFlagCombos pins the mutual-exclusion rules.
func TestCLIConvertFlagCombos(t *testing.T) {
	in := writeTestCSV(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-graphdir", t.TempDir(), in}, "-graphdir only applies to -convert"},
		{[]string{"-convert", "-eval", in}, "mutually exclusive"},
		{[]string{"-convert", "-graphdir", t.TempDir(), "-o", "x.bbg", in}, "mutually exclusive"},
	} {
		var stdout, stderr bytes.Buffer
		err := newApp().run(context.Background(), tc.args, nil, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestCLIBBGExplicitOtherFormat: naming a conflicting -format on a
// .bbg path skips the mmap fast path and parses — which must then fail
// typed, not mis-parse binary bytes silently.
func TestCLIBBGExplicitOtherFormat(t *testing.T) {
	in := writeTestCSV(t)
	var stdout, stderr bytes.Buffer
	if err := newApp().run(context.Background(), []string{"-convert", in}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	bbg := strings.TrimSuffix(in, ".csv") + ".bbg"
	err := newApp().run(context.Background(), []string{"-format", "csv", bbg}, nil, &stdout, &stderr)
	if err == nil {
		t.Fatal("csv-parsing a .bbg file succeeded")
	}
}
