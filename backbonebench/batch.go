package main

// The batch workloads are the paper's offline use: one caller runs the
// library in-process, in a closed loop, on the ~1M-edge corpus. The
// daemon, its caches and its admission do no work here.
//
//   - batch-csv-nc: ReadGraph(csv) -> nc scores on all cores -> prune ->
//     WriteGraph(csv). Parsing and encoding dominate.
//   - batch-bbg-df: binfmt.Open -> df scores -> prune -> WriteGraph(csv)
//     -> Close. df scoring dominates.
//
// Set-up, in both, is the csv -> .bbg conversion.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/binfmt"
)

type batchOp int

const (
	csvNC batchOp = iota
	bbgDF
)

// batchSLO is the latency limit of one batch op at full scale, about
// three times its median on a 2-core host.
var batchSLO = map[batchOp]time.Duration{csvNC: 1500 * time.Millisecond, bbgDF: 1000 * time.Millisecond}

func runBatch(ctx context.Context, r *run, op batchOp) error {
	method, kind := "nc", "csv-nc"
	if op == bbgDF {
		method, kind = "df", "bbg-df"
	}
	r.kinds, r.slo = []string{kind}, batchSLO[op]
	c := denseCorpus(r.cfg.seed, r.scale)
	csvPath := filepath.Join(r.cfg.workdir, "dense.csv")
	bbgPath := filepath.Join(r.cfg.workdir, "dense.bbg")
	if err := os.WriteFile(csvPath, c.body, 0o644); err != nil {
		return err
	}
	csvMB := float64(len(c.body)) / 1e6
	want, kept, err := batchReference(ctx, c.body, method)
	if err != nil {
		return err
	}
	r.check(checkKept(r.cfg.scale, "dense", method, kept))
	r.layers["filter.kept_frac."+method] = kept
	c = nil

	// settle collects the last step's garbage, so the next starts from
	// the same heap whenever it left the collector, and then times the
	// host-speed kernel while nothing else runs.
	settle := func() {
		runtime.GC()
		r.speed.sample()
	}
	settle()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		r.tr.beginOp("setup")
		err := convert(csvPath, bbgPath, r.tr)
		r.tr.endOp()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		settle()
	}

	// The reference and the set-ups parse the csv, which takes more
	// memory than a bbg-df op, so the peak resident set is taken over the
	// measured ops alone.
	if err := resetSelfPeakRSS(); err != nil {
		return err
	}
	var out bytes.Buffer
	var tracedMs, untracedMs []float64
	wrong := 0
	deadline := time.Now().Add(r.cfg.duration())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A traced run alternates traced and untraced ops; the gap
		// between the two medians is the tracing overhead.
		tr := r.tr
		if i%2 == 1 {
			tr = nil
		}
		out.Reset()
		start := time.Now()
		tr.beginOp("op." + kind)
		var err error
		if op == csvNC {
			err = runCSVNC(ctx, csvPath, &out, tr)
		} else {
			err = runBBGDF(ctx, bbgPath, &out, tr)
		}
		tr.endOp()
		d := ms(time.Since(start))
		settle()
		ok := err == nil && sha256.Sum256(out.Bytes()) == want
		if err != nil {
			fmt.Fprintf(r.log, "backbonebench: %s: %v\n", kind, err)
		} else if !ok {
			wrong++
		}
		r.ops = append(r.ops, opResult{ms: d, ok: ok})
		if tr != nil {
			tracedMs = append(tracedMs, d)
		} else {
			untracedMs = append(untracedMs, d)
		}
	}
	if wrong > 0 {
		r.check(fmt.Errorf("%d of %d %s outputs differ from the reference", wrong, len(r.ops), kind))
	}
	r.rssMB = selfPeakRSSMB()
	if r.tr == nil {
		return nil
	}
	ops := r.tr.operations()
	isOp := func(name string) bool { return name == "op."+kind }
	//lint:detiter-ok copies into another map
	for name, v := range layerMedians(ops, isOp) {
		r.layers[name] = v
	}
	r.layers["binfmt.write_ms"] = layerMedians(ops, func(name string) bool { return name == "setup" })["binfmt.write_ms"]
	if v := r.layers["graph.read_csv_ms"]; v > 0 {
		r.layers["graph.read_csv_mb_per_s"] = csvMB / (v / 1000)
	}
	r.layers["gen.layer_sum_frac"] = layerSum(r, ops, isOp)
	if len(untracedMs) > 0 {
		r.layers["gen.trace_overhead_frac"] = median(tracedMs)/median(untracedMs) - 1
	}
	return nil
}

// batchReference computes the expected output digest of one op through
// the serial scorer on the csv-parsed graph, and the method's kept
// share of edges.
func batchReference(ctx context.Context, body []byte, method string) ([sha256.Size]byte, float64, error) {
	g, err := repro.ReadGraph(bytes.NewReader(body))
	if err != nil {
		return [sha256.Size]byte{}, 0, err
	}
	res, err := repro.BackboneContext(ctx, g, repro.WithMethod(method))
	if err != nil {
		return [sha256.Size]byte{}, 0, err
	}
	var out bytes.Buffer
	if err := repro.WriteGraph(&out, res.Backbone); err != nil {
		return [sha256.Size]byte{}, 0, err
	}
	return sha256.Sum256(out.Bytes()), res.EdgeCoverage, nil
}

// convert is the set-up: parse the csv corpus and write it as .bbg.
func convert(csvPath, bbgPath string, tr *tracer) error {
	in, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	g, err := repro.ReadGraph(in)
	in.Close()
	if err != nil {
		return err
	}
	out, err := os.Create(bbgPath)
	if err != nil {
		return err
	}
	s := tr.begin("binfmt.write_ms")
	err = binfmt.Write(out, g)
	tr.end(s)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func runCSVNC(ctx context.Context, path string, out *bytes.Buffer, tr *tracer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := tr.begin("graph.read_csv_ms")
	g, err := repro.ReadGraph(f)
	tr.end(s)
	if err != nil {
		return err
	}
	return pruneAndWrite(ctx, g, "nc", []repro.Option{repro.WithParallel()}, out, tr)
}

func runBBGDF(ctx context.Context, path string, out *bytes.Buffer, tr *tracer) error {
	s := tr.begin("binfmt.open_ms")
	f, err := binfmt.Open(path)
	tr.end(s)
	if err != nil {
		return err
	}
	err = pruneAndWrite(ctx, f.Graph(), "df", nil, out, tr)
	s = tr.begin("binfmt.close_ms")
	cerr := f.Close()
	tr.end(s)
	if err == nil {
		err = cerr
	}
	return err
}

// pruneAndWrite scores g with method, prunes at the method's default
// threshold and writes the backbone as csv.
func pruneAndWrite(ctx context.Context, g *repro.Graph, method string, scoreOpts []repro.Option, out *bytes.Buffer, tr *tracer) error {
	s := tr.begin("filter.score_ms." + method)
	sc, err := repro.ScoreContext(ctx, g, append(scoreOpts, repro.WithMethod(method))...)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("filter.extract_ms")
	res, err := repro.BackboneContext(ctx, g, repro.WithMethod(method), repro.WithScores(sc))
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("graph.write_csv_ms")
	err = repro.WriteGraph(out, res.Backbone)
	tr.end(s)
	return err
}

// layerSum is the share of the selected ops' time their layer spans
// cover, weighted by op time; below 0.95 the run is flagged, since
// that much time went somewhere no span names. (Per op it is lower on
// microsecond ops, where the tracer's own few hundred nanoseconds
// between spans show.)
func layerSum(r *run, ops []opLayers, keep func(string) bool) float64 {
	var covered, total float64
	for _, o := range ops {
		if keep(o.name) {
			covered += o.total - o.self
			total += o.total
		}
	}
	if total == 0 {
		return 0
	}
	if f := covered / total; f < 0.95 {
		r.flag("layer spans cover %.3f of the traced ops' time (< 0.95)", f)
	}
	return covered / total
}
