package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchDef is the part of BENCHMARK.json the benchmark reads: the
// workload names, and each metric's unit, direction and, for end-to-end
// metrics, regression bound.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares run records of a parent commit and a change,
// one row per (workload, metric) with both sides' median and quartiles.
//
// A metric regresses when the change's median is worse than the
// parent's by more than the metric's bound (a share of the parent's
// median); when either side's spread (quartile distance over median)
// is wider than the bound the row is "unresolved" instead, unless every
// change run beats every parent run. A gain needs at least ten pairs
// (the i-th parent record against the i-th change record, runs taken
// alternately), the change winning at least nine in ten, and a median
// gap wider than the parent's quartile distance. Any regression makes
// the exit status 1.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	parentGlob := fs.String("parent", "", "glob of the parent commit's run records (-out files)")
	changeGlob := fs.String("change", "", "glob of the change's run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := readBench(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "backbonebench compare: %v\n", err)
		return 2
	}
	parent, err := readRecords(*parentGlob)
	if err == nil {
		var change map[string][]*record
		if change, err = readRecords(*changeGlob); err == nil {
			return compareRecords(stdout, def, parent, change)
		}
	}
	fmt.Fprintf(stderr, "backbonebench compare: %v\n", err)
	return 2
}

func readBench(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readRecords loads the records pattern matches, grouped by workload,
// each group in file-name order.
func readRecords(pattern string) (map[string][]*record, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run records match %q", pattern)
	}
	slices.Sort(paths)
	out := map[string][]*record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	return out, nil
}

func compareRecords(w io.Writer, def *benchDef, parent, change map[string][]*record) int {
	code := 0
	for _, wl := range workloads {
		p, c := parent[wl.name], change[wl.name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range append(slices.Clone(def.EndToEnd), def.PerLayer...) {
			pv, cv := values(p, m.Name), values(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := verdict(pv, cv, m)
			if v == "regression" {
				code = 1
			}
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			change := 0.0
			if pm != 0 {
				change = 100 * (cm - pm) / math.Abs(pm)
			}
			fmt.Fprintf(w, "%-13s %-38s parent %11.4f [%11.4f %11.4f]  change %11.4f [%11.4f %11.4f] %-5s %+8.2f%%  n=%d/%d  %s\n",
				wl.name, m.Name, pm, pq1, pq3, cm, cq1, cq3, m.Unit, change, len(pv), len(cv), v)
		}
	}
	return code
}

// values collects one metric across records.
func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies the regression and gain rules to one metric.
func verdict(pv, cv []float64, m benchMetric) string {
	lower := m.Better == "lower"
	better := func(a, b float64) bool { // a reads better than b
		if lower {
			return a < b
		}
		return a > b
	}
	pq1, pm, pq3 := quartiles(pv)
	cq1, cm, cq3 := quartiles(cv)
	pairs, wins := min(len(pv), len(cv)), 0
	for i := 0; i < pairs; i++ {
		if better(cv[i], pv[i]) {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1 {
		return "gain"
	}
	if m.Bound == 0 {
		return "-" // per-layer: no bound, reported for attribution only
	}
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	if max(spread(pq1, pm, pq3), spread(cq1, cm, cq3)) > m.Bound {
		worstChange, bestParent := slices.Max(cv), slices.Min(pv)
		if !lower {
			worstChange, bestParent = slices.Min(cv), slices.Max(pv)
		}
		if better(worstChange, bestParent) {
			return "better"
		}
		return "unresolved"
	}
	if worse := cm - pm; (lower && worse > m.Bound*math.Abs(pm)) || (!lower && -worse > m.Bound*math.Abs(pm)) {
		return "regression"
	}
	return "ok"
}

// summary is one metric's distribution over a set of runs.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	Runs   int     `json:"runs"`
}

// ledgerSet summarizes one set of runs: per workload, per metric.
type ledgerSet struct {
	Records   string                        `json:"records"`
	Seeds     []int64                       `json:"seeds"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

// ledger is a baseline: sets of runs of one commit on one host.
type ledger struct {
	Commit string      `json:"commit"`
	Host   string      `json:"host"`
	NProc  int         `json:"nproc"`
	Go     string      `json:"go"`
	Sets   []ledgerSet `json:"sets"`
}

// baselineMain summarizes sets of run records (one glob per set, as
// written by -out) into a baseline ledger on stdout: per set, workload
// and metric, the median, quartiles and spread over the set's runs.
func baselineMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("baseline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	commit := fs.String("commit", "", "commit the records were measured at")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out := ledger{Commit: *commit}
	for _, pattern := range fs.Args() {
		recs, err := readRecords(pattern)
		if err != nil {
			fmt.Fprintf(stderr, "backbonebench baseline: %v\n", err)
			return 2
		}
		set := ledgerSet{Records: pattern, Workloads: map[string]map[string]summary{}}
		//lint:detiter-ok fills another map; JSON encoding sorts the keys
		for wl, rs := range recs {
			out.Host, out.NProc, out.Go = rs[0].Host, rs[0].NProc, rs[0].Go
			set.Workloads[wl] = map[string]summary{}
			//lint:detiter-ok fills another map
			for name, m := range rs[0].Metrics {
				vs := values(rs, name)
				q1, med, q3 := quartiles(vs)
				s := summary{Unit: m.Unit, Median: med, Q1: q1, Q3: q3, Runs: len(vs)}
				if med != 0 {
					s.Spread = (q3 - q1) / math.Abs(med)
				}
				set.Workloads[wl][name] = s
			}
			for _, r := range rs {
				if !slices.Contains(set.Seeds, r.Seed) {
					set.Seeds = append(set.Seeds, r.Seed)
				}
			}
		}
		slices.Sort(set.Seeds)
		out.Sets = append(out.Sets, set)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "backbonebench baseline: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
