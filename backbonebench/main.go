// Command backbonebench is the repository's benchmark: it measures the
// backboning library and the backboned daemon from outside, end to end
// and layer by layer, on generated count-weighted corpora, and checks
// every output it measures against an in-process reference.
//
// Usage:
//
//	backbonebench -daemon path/to/backboned [-workload W] [-seed N]
//	              [-seconds S] [-trace 0|1] [-scale full|smoke]
//	              [-workdir dir] [-out result.json] [-spans spans.json]
//	backbonebench compare [-bench BENCHMARK.json] -parent 'a/*.json' -change 'b/*.json'
//	backbonebench baseline [-commit C] 'set1/*.json' 'set2/*.json' > baseline.json
//
// A run prints every metric by name with its unit, then, as its last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced and reports the per-layer ones. A wrong output makes
// the run exit non-zero. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "baseline":
			os.Exit(baselineMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	daemon   string // backboned binary
	workdir  string // corpus files and daemon logs
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workloads lists every workload in the order a full run takes them.
var workloads = []workloadDef{
	{"batch-csv-nc", func(ctx context.Context, r *run) error { return runBatch(ctx, r, csvNC) }},
	{"batch-bbg-df", func(ctx context.Context, r *run) error { return runBatch(ctx, r, bbgDF) }},
	{"serve-hot", runServeHot},
	{"serve-cold", runServeCold},
	{"session-live", runSessionLive},
}

type workloadDef struct {
	name string
	run  func(context.Context, *run) error
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"within_slo_frac", "frac"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced per-layer metrics, named <module>.<name>. A
// workload on which a layer does no work reports 0 for it.
var perLayer = []metricDef{
	{"graph.read_csv_ms", "ms"},
	{"graph.read_csv_mb_per_s", "MB/s"},
	{"graph.write_csv_ms", "ms"},
	{"graph.delta_apply_ms", "ms"},
	{"graph.delta_materialize_ms", "ms"},
	{"binfmt.open_ms", "ms"},
	{"binfmt.write_ms", "ms"},
	{"binfmt.close_ms", "ms"},
	{"filter.score_ms.nc", "ms"},
	{"filter.score_ms.df", "ms"},
	{"filter.extract_ms", "ms"},
	{"filter.rescore_ms", "ms"},
	{"filter.rescored_rows_per_read", "rows"},
	{"filter.full_rescores", "count"},
	{"filter.kept_frac.nc", "frac"},
	{"filter.kept_frac.df", "frac"},
	{"eval.compare_ms", "ms"},
	{"cache.graph.hit_ratio", "frac"},
	{"cache.score.hit_ratio", "frac"},
	{"cache.graph.evictions", "count"},
	{"cache.score.evictions", "count"},
	{"cache.score.bytes", "bytes"},
	{"admission.fast.admitted", "count"},
	{"admission.cold.admitted", "count"},
	{"admission.sheds", "count"},
	{"admission.queue_timeouts", "count"},
	{"admission.limit_end", "slots"},
	{"admission.limit_decreases", "count"},
	{"admission.exec_p50_ms.cached", "ms"},
	{"admission.exec_p50_ms.evaluate", "ms"},
	{"admission.exec_p50_ms.nc", "ms"},
	{"admission.exec_p50_ms.session-read", "ms"},
	{"admission.exec_p50_ms.session-update", "ms"},
	{"admission.deadline_violations", "count"},
	{"backboned.intake_digest_ms", "ms"},
	{"backboned.update_decode_ms", "ms"},
	{"backboned.encode_json_ms", "ms"},
	{"backboned.handler_ms_p50", "ms"},
	{"backboned.outside_handler_ms_p50", "ms"},
	{"backboned.resp_bytes_mean", "bytes"},
	{"backboned.non2xx.503", "count"},
	{"backboned.non2xx.504", "count"},
	{"backboned.non2xx.other", "count"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.client_queue_p90_ms", "ms"},
	{"gen.trace_overhead_frac", "frac"},
	{"gen.layer_sum_frac", "frac"},
}

// setupReps is how many times a run sets the program up; setup_s is
// the median.
const setupReps = 5

// run collects one workload run's measurements.
type run struct {
	cfg   *config
	scale scale
	log   io.Writer  // progress and flags, for a human
	tr    *tracer    // nil unless traced
	speed *hostSpeed // the reference kernel's times (hostspeed.go)

	kinds  []string // op names; opResult.kind indexes them
	ops    []opResult
	setups []float64 // seconds per set-up
	slo    time.Duration
	rssMB  float64
	layers map[string]float64 // per-layer metrics (traced runs)
	checks []string           // failed correctness checks
}

type opResult struct {
	kind int
	ms   float64
	ok   bool
}

// check records a failed correctness check.
func (r *run) check(err error) {
	if err != nil {
		r.checks = append(r.checks, err.Error())
		fmt.Fprintf(r.log, "backbonebench: CHECK FAILED: %v\n", err)
	}
}

// flag notes a measurement condition that makes a run's numbers
// suspect without making its outputs wrong.
func (r *run) flag(format string, args ...any) {
	fmt.Fprintf(r.log, "backbonebench: FLAG: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opSummary is one op kind's counts and latency percentiles; p99 is
// reported only from 1000 samples up, and never gates.
type opSummary struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	P50Ms     float64  `json:"p50_ms"`
	P90Ms     float64  `json:"p90_ms"`
	P99Ms     *float64 `json:"p99_ms,omitempty"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, written by -out and read by
// compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Scale    string  `json:"scale"`
	result
	// Ops are as measured, not scaled to the reference host speed.
	Ops    map[string]opSummary `json:"ops"`
	Checks []string             `json:"failed_checks,omitempty"`
	// KernelMs are the reference kernel's times in the run;
	// TimeScale = referenceKernelMs / their median.
	KernelMs  []float64 `json:"kernel_ms"`
	TimeScale float64   `json:"time_scale"`
	Host      string    `json:"host"`
	NProc     int       `json:"nproc"`
	Go        string    `json:"go"`
}

// finish turns the run's measurements into its record, expressing
// every time metric at the reference host speed (see hostspeed.go).
func (r *run) finish() (*record, error) {
	rec := &record{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Scale: r.cfg.scale,
		Ops: map[string]opSummary{}, Checks: r.checks,
		KernelMs: r.speed.ms, TimeScale: r.speed.factor(),
		NProc: runtime.NumCPU(), Go: runtime.Version(),
	}
	rec.Host, _ = os.Hostname()
	if len(r.ops) == 0 {
		return nil, errors.New("no operation completed")
	}
	var all []float64
	inSLO := 0
	per := make([][]float64, len(r.kinds))
	for _, o := range r.ops {
		all = append(all, o.ms)
		per[o.kind] = append(per[o.kind], o.ms)
		s := rec.Ops[r.kinds[o.kind]]
		s.Attempted++
		rec.Attempted++
		if !o.ok {
			s.Failed++
			rec.Failed++
		} else if o.ms <= ms(r.slo) {
			inSLO++
		}
		rec.Ops[r.kinds[o.kind]] = s
	}
	for k, name := range r.kinds {
		s, ok := rec.Ops[name]
		if !ok {
			continue
		}
		s.P50Ms, s.P90Ms = percentile(per[k], 0.5), percentile(per[k], 0.9)
		if len(per[k]) >= 1000 {
			p99 := percentile(per[k], 0.99)
			s.P99Ms = &p99
		}
		rec.Ops[name] = s
	}
	rec.Correct = len(r.checks) == 0
	rec.Metrics = map[string]metric{}
	if r.cfg.trace {
		rec.Trace = 1
		for _, d := range perLayer {
			rec.Metrics[d.name] = rec.scaled(r.layers[d.name], d.unit)
		}
		return rec, nil
	}
	values := map[string]float64{
		"setup_s":         median(r.setups),
		"p50_ms":          percentile(all, 0.5),
		"p90_ms":          percentile(all, 0.9),
		"within_slo_frac": float64(inSLO) / float64(len(r.ops)),
		"peak_rss_mb":     r.rssMB,
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = rec.scaled(values[d.name], d.unit)
	}
	return rec, nil
}

// scaled expresses a measured value at the reference host speed: times
// grow, and rates shrink, by the run's time scale.
func (rec *record) scaled(v float64, unit string) metric {
	switch unit {
	case "ms", "s":
		v *= rec.TimeScale
	case "MB/s":
		v /= rec.TimeScale
	}
	return metric{Value: v, Unit: unit}
}

// print writes the record for a reader: every metric with its unit,
// then per-op counts and percentiles, then the result line.
func (rec *record) print(w io.Writer) error {
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d (%gs, trace %d, %s scale)\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Scale)
	fmt.Fprintf(w, "  reference kernel %.1f ms (host of record: %d ms): times below are scaled by %.4f; op lines are as measured\n",
		median(rec.KernelMs), referenceKernelMs, rec.TimeScale)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	names := make([]string, 0, len(rec.Ops))
	//lint:detiter-ok collecting keys only; sorted before use
	for name := range rec.Ops {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s := rec.Ops[name]
		fmt.Fprintf(w, "  op %-14s ops_attempted %6d  ops_failed %4d  p50 %9.3f ms  p90 %9.3f ms", name, s.Attempted, s.Failed, s.P50Ms, s.P90Ms)
		if s.P99Ms != nil {
			fmt.Fprintf(w, "  p99 %9.3f ms (%d samples)", *s.P99Ms, s.Attempted)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  workload ops_attempted %d ops_failed %d, failed checks %d\n", rec.Attempted, rec.Failed, len(rec.Checks))
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload performs one run of cfg.workload.
func runWorkload(ctx context.Context, cfg *config, log io.Writer, spansPath string) (*record, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == cfg.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sc, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", cfg.scale)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, scale: sc, log: log, speed: newHostSpeed(), layers: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.speed.sampleN(edgeSamples)
	if err := workloads[i].run(ctx, r); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.speed.sampleN(edgeSamples)
	if spansPath != "" && r.tr != nil {
		if err := r.tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return r.finish()
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("backbonebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: every workload in turn)")
		seed     = fs.Int64("seed", 1, "input seed: 1 for development, 2 held out for checking claims")
		seconds  = fs.Float64("seconds", 15, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 traces the run and reports the per-layer metrics instead of the end-to-end ones")
		scaleF   = fs.String("scale", "full", "corpus scale: full, or smoke for a seconds-long check")
		daemon   = fs.String("daemon", "", "backboned binary built from the tree under test (serving workloads)")
		workdir  = fs.String("workdir", "", "directory for corpus files and daemon logs (default: a new temporary directory)")
		out      = fs.String("out", "", "write the run's full record as JSON to this file")
		spans    = fs.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "backbonebench: -trace must be 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	dir := *workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "backbonebench"); err != nil {
			fmt.Fprintf(stderr, "backbonebench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := 0
	for _, name := range names {
		cfg := &config{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			scale: *scaleF, daemon: *daemon, workdir: filepath.Join(dir, name),
		}
		rec, err := runWorkload(ctx, cfg, stderr, perWorkload(*spans, name, len(names)))
		if err != nil {
			fmt.Fprintf(stderr, "backbonebench: %s: %v\n", name, err)
			return 1
		}
		if err := rec.print(stdout); err != nil {
			fmt.Fprintf(stderr, "backbonebench: %v\n", err)
			return 1
		}
		if *out != "" {
			b, err := json.MarshalIndent(rec, "", "  ")
			if err == nil {
				err = os.WriteFile(perWorkload(*out, name, len(names)), b, 0o644)
			}
			if err != nil {
				fmt.Fprintf(stderr, "backbonebench: %v\n", err)
				return 1
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// perWorkload names a run's output file: path itself for a one-workload
// run, path with the workload's name inserted before ".json" otherwise.
func perWorkload(path, workload string, runs int) string {
	if path == "" || runs == 1 {
		return path
	}
	return strings.TrimSuffix(path, ".json") + "." + workload + ".json"
}
