package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestWorldgenWritesBundle(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 3, 25, 2, []string{"trade"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trade_y0.csv", "trade_y1.csv", "countries.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "trade_y0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadGraph(strings.NewReader(string(data)), graph.ReadOptions{Format: "csv", Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Error("exported network is empty")
	}
	countries, err := os.ReadFile(filepath.Join(dir, "countries.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(countries), "\n")
	if lines != 26 { // header + 25 countries
		t.Errorf("countries.csv has %d lines, want 26", lines)
	}
	if err := run(dir, 3, 25, 2, []string{"nonsense"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestWorldgenDeterministic(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	if err := run(d1, 7, 20, 1, []string{"flight"}); err != nil {
		t.Fatal(err)
	}
	if err := run(d2, 7, 20, 1, []string{"flight"}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(d1, "flight_y0.csv"))
	b, _ := os.ReadFile(filepath.Join(d2, "flight_y0.csv"))
	if string(a) != string(b) {
		t.Error("same seed produced different exports")
	}
}
