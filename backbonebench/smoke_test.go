package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json at smoke scale for a
// second, untraced and traced, against a backboned built from the tree,
// and checks that each run passes its correctness checks and reports
// exactly the metrics BENCHMARK.json names, each printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds backboned and runs every workload")
	}
	def, err := readBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "backboned")
	if out, err := exec.Command("go", "build", "-o", daemon, "repro/cmd/backboned").CombinedOutput(); err != nil {
		t.Fatalf("build backboned: %v\n%s", err, out)
	}
	for _, name := range names {
		for trace, metrics := range [][]benchMetric{def.EndToEnd, def.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", name, trace), func(t *testing.T) {
				var out, log bytes.Buffer
				code := benchMain([]string{"-daemon", daemon, "-workdir", filepath.Join(dir, "work"),
					"-workload", name, "-seconds", "1", "-scale", "smoke", "-trace", strconv.Itoa(trace)}, &out, &log)
				if code != 0 {
					t.Fatalf("exit status %d\n%s", code, log.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				printed := map[string]string{} // metric lines: name, value, unit
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 {
						printed[f[0]] = f[2]
					}
				}
				if len(res.Metrics) != len(metrics) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(metrics))
				}
				for _, m := range metrics {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if printed[m.Name] != m.Unit {
						t.Errorf("metric %s is not printed with its unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}
