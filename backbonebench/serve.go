package main

// The serving workloads drive a backboned binary built from the tree
// under test, started with -workers 2, through the open-loop generator.
// Every reply is checked against a reference computed in-process
// through the library: before the daemon starts, or for session reads,
// whose state depends on how the load interleaved, after the load.
//
//   - serve-hot: a few distinct bodies, every request a cache hit, so
//     intake, cache lookup, extraction, evaluation and encoding
//     dominate while parsing and scoring do nothing.
//   - serve-cold: every body unique, so parsing and nc scoring dominate
//     and the caches only fill and evict: the write side of serve-hot's
//     reads.
//   - session-live: one live session over the ~1M-edge corpus, so delta
//     apply, materialization, frontier re-scoring, extraction and
//     encoding dominate, and updates contend with reads on the session
//     lock.
//
// A traced run spends two thirds of its time on the load, recording
// client spans and /statsz deltas, and the last third replaying the
// same arrivals in-process through the public calls the daemon's
// handlers make, which is where the per-layer self times come from.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
)

// Arrival rates per second. On the 2-core host the benchmark was
// introduced on, the backlog grew without bound from about 300 (hot),
// 125 (cold) and 70 (session) arrivals per second while the host ran
// fast; it ran up to 40% slower for hours at a time. These rates load
// the daemon to about 15% of that capacity, and 25% when the host is
// slow. At twice these rates, the run-to-run spread of p90 was two to
// four times larger and some serve-hot and session-live runs missed
// their latency limits, because queueing amplifies the host's own
// drift. They are constants: changing one starts a new baseline.
const (
	hotRate     = 45
	coldRate    = 20
	sessionRate = 12
)

// evalMethods is the comparison serve-hot's /evaluate requests ask for.
var evalMethods = []string{"nc", "df", "nt", "mst"}

// serving describes one serving workload to runServing.
type serving struct {
	kinds []string
	slo   time.Duration
	// plan draws the arrivals of a load phase lasting d.
	plan func(d time.Duration) []arrival
	// setUp brings a freshly started daemon to the state the load
	// starts from; it is timed as set-up.
	setUp func(ctx context.Context, d *daemon, l *loader) error
	// do performs one arrival and marks a wrong output.
	do func(ctx context.Context, d *daemon, s *sample, l *loader)
	// finish checks the load's replies and the daemon's state after the
	// load, marking wrong replies (optional).
	finish func(ctx context.Context, d *daemon, l *loader, samples []sample) error
	// prepare builds the in-process state replay starts from (optional).
	prepare func(ctx context.Context) error
	// replay re-runs one arrival's handler call sequence in process.
	replay func(ctx context.Context, a arrival, tr *tracer) error
}

func runServing(ctx context.Context, r *run, w *serving) error {
	r.kinds, r.slo = w.kinds, w.slo
	if r.cfg.daemon == "" {
		return fmt.Errorf("serving workloads need -daemon, the backboned binary to measure")
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(ctx, r.cfg.daemon, filepath.Join(r.cfg.workdir, fmt.Sprintf("backboned.%d.log", i))); err != nil {
			return err
		}
		if err := w.setUp(ctx, d, &loader{start: start}); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}

	loadFor := r.cfg.duration()
	if r.tr != nil {
		loadFor = loadFor * 2 / 3
	}
	plan := w.plan(loadFor)
	before, err := d.statsz()
	if err != nil {
		return err
	}
	samples := openLoop(ctx, plan, r.tr != nil, func(ctx context.Context, s *sample, l *loader) { w.do(ctx, d, s, l) })
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := d.statsz()
	if err != nil {
		return err
	}
	if w.finish != nil {
		r.check(w.finish(ctx, d, &loader{start: time.Now()}, samples))
	}
	if v := after.Admission.DeadlineViolations; v > 0 {
		r.check(fmt.Errorf("backboned counted %d deadline violations", v))
	}
	r.rssMB = d.stop()
	d = nil

	wrong, logged := 0, 0
	var lateness []float64
	for i := range samples {
		s := &samples[i]
		r.ops = append(r.ops, opResult{kind: s.kind, ms: s.latencyMs(), ok: s.ok()})
		if s.wrong {
			wrong++
		}
		if !s.ok() && logged < 5 {
			logged++
			fmt.Fprintf(r.log, "backbonebench: %s #%d failed: status %d, err %v, wrong output %v\n", w.kinds[s.kind], s.seq, s.status, s.err, s.wrong)
		}
		if !s.queued {
			lateness = append(lateness, ms(s.dequeued-s.due))
		}
	}
	if wrong > 0 {
		r.check(fmt.Errorf("%d of %d replies differ from the in-process reference", wrong, len(samples)))
	}
	if p99 := percentile(lateness, 0.99); p99 >= 1 {
		r.flag("generator lateness p99 %.3f ms (>= 1 ms): arrivals left late, latencies are understated", p99)
	}
	if r.tr == nil {
		return nil
	}
	loadLayers(r, w.kinds, samples, lateness, before, after)
	if w.prepare != nil {
		if err := w.prepare(ctx); err != nil {
			return err
		}
	}
	return replayOps(ctx, r, w, plan, r.cfg.duration()/3)
}

// loadLayers derives the traced load's per-layer metrics: client spans
// from each sample's timestamps (with the daemon's reported handler
// time as a child), generator lateness and queueing, and /statsz
// counter deltas.
func loadLayers(r *run, kinds []string, samples []sample, lateness []float64, before, after *statsz) {
	var queue, handler, outside, respBytes []float64
	for i := range samples {
		s := &samples[i]
		addClientSpans(r.tr, kinds[s.kind], s)
		q := 0.0
		if s.queued {
			q = ms(s.dequeued - s.due)
		}
		queue = append(queue, q)
		if s.handlerMs >= 0 {
			handler = append(handler, s.handlerMs)
			outside = append(outside, ms(s.done-s.sent)-s.handlerMs)
		}
		switch {
		case s.ok():
			respBytes = append(respBytes, float64(s.bytes))
		case s.status == http.StatusServiceUnavailable:
			r.layers["backboned.non2xx.503"]++
		case s.status == http.StatusGatewayTimeout:
			r.layers["backboned.non2xx.504"]++
		case s.err != nil || s.status/100 != 2:
			r.layers["backboned.non2xx.other"]++
		}
	}
	r.layers["gen.lateness_p99_ms"] = percentile(lateness, 0.99)
	r.layers["gen.client_queue_p90_ms"] = percentile(queue, 0.9)
	r.layers["backboned.handler_ms_p50"] = median(handler)
	r.layers["backboned.outside_handler_ms_p50"] = median(outside)
	r.layers["backboned.resp_bytes_mean"] = mean(respBytes)

	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	g0, g1, s0, s1 := before.GraphCache, after.GraphCache, before.ScoreCache, after.ScoreCache
	r.layers["cache.graph.hit_ratio"] = ratio(g1.Hits-g0.Hits, g1.Misses-g0.Misses)
	r.layers["cache.score.hit_ratio"] = ratio(s1.Hits-s0.Hits, s1.Misses-s0.Misses)
	r.layers["cache.graph.evictions"] = float64(g1.Evictions - g0.Evictions)
	r.layers["cache.score.evictions"] = float64(s1.Evictions - s0.Evictions)
	r.layers["cache.score.bytes"] = float64(s1.Bytes)

	a0, a1 := before.Admission, after.Admission
	r.layers["admission.fast.admitted"] = float64(a1.Fast.Admitted - a0.Fast.Admitted)
	r.layers["admission.cold.admitted"] = float64(a1.Cold.Admitted - a0.Cold.Admitted)
	r.layers["admission.sheds"] = float64(a1.Fast.Sheds + a1.Cold.Sheds - a0.Fast.Sheds - a0.Cold.Sheds)
	r.layers["admission.queue_timeouts"] = float64(a1.Fast.QueueTimeouts + a1.Cold.QueueTimeouts - a0.Fast.QueueTimeouts - a0.Cold.QueueTimeouts)
	r.layers["admission.limit_end"] = a1.Limit
	r.layers["admission.limit_decreases"] = float64(a1.Decreases - a0.Decreases)
	r.layers["admission.deadline_violations"] = float64(a1.DeadlineViolations)
	for _, key := range []string{"cached", "evaluate", "nc", "session-read", "session-update"} {
		r.layers["admission.exec_p50_ms."+key] = a1.Latency[key].P50Ms
	}
	if reads := after.Sessions.Reads - before.Sessions.Reads; reads > 0 {
		r.layers["filter.rescored_rows_per_read"] = float64(after.Sessions.RescoredRows-before.Sessions.RescoredRows) / float64(reads)
	}
	r.layers["filter.full_rescores"] = float64(after.Sessions.FullRescores - before.Sessions.FullRescores)
}

// addClientSpans records one sample as an operation: queue wait, send,
// wait for headers (holding the daemon's handler time) and body read.
func addClientSpans(t *tracer, kind string, s *sample) {
	op := t.ops
	t.ops++
	root := t.add(span{Name: "client." + kind, Op: op, Parent: -1, Start: int64(s.due), End: int64(s.done)})
	t.add(span{Name: "gen.client_queue_ms", Op: op, Parent: root, Start: int64(s.due), End: int64(s.dequeued)})
	t.add(span{Name: "client.send", Op: op, Parent: root, Start: int64(s.dequeued), End: int64(s.sent)})
	wait := t.add(span{Name: "client.wait_headers", Op: op, Parent: root, Start: int64(s.sent), End: int64(s.headers)})
	if s.handlerMs >= 0 {
		start := max(int64(s.headers)-int64(s.handlerMs*1e6), int64(s.sent))
		t.add(span{Name: "backboned.handler", Op: op, Parent: wait, Start: start, End: int64(s.headers)})
	}
	t.add(span{Name: "client.read_body", Op: op, Parent: root, Start: int64(s.headers), End: int64(s.done)})
}

// replayOps replays plan's arrivals in order for at most budget,
// alternating traced and untraced ops, and folds the traced ones into
// per-layer medians, the layer coverage and the tracing overhead.
func replayOps(ctx context.Context, r *run, w *serving, plan []arrival, budget time.Duration) error {
	traced := make([][]float64, len(w.kinds))
	untraced := make([][]float64, len(w.kinds))
	deadline := time.Now().Add(budget)
	for i, a := range plan {
		if i > 0 && !time.Now().Before(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := r.tr
		if i%2 == 1 {
			tr = nil
		}
		start := time.Now()
		tr.beginOp("replay." + w.kinds[a.kind])
		err := w.replay(ctx, a, tr)
		tr.endOp()
		d := ms(time.Since(start))
		if err != nil {
			return fmt.Errorf("replay of %s #%d: %w", w.kinds[a.kind], a.seq, err)
		}
		if tr != nil {
			traced[a.kind] = append(traced[a.kind], d)
		} else {
			untraced[a.kind] = append(untraced[a.kind], d)
		}
	}
	ops := r.tr.operations()
	isReplay := func(name string) bool { return strings.HasPrefix(name, "replay.") }
	//lint:detiter-ok copies into another map
	for name, v := range layerMedians(ops, isReplay) {
		r.layers[name] = v
	}
	r.layers["gen.layer_sum_frac"] = layerSum(r, ops, isReplay)
	var extra, base float64
	for k := range w.kinds {
		if len(traced[k]) == 0 || len(untraced[k]) == 0 {
			continue
		}
		n := float64(len(traced[k]) + len(untraced[k]))
		extra += n * (median(traced[k]) - median(untraced[k]))
		base += n * median(untraced[k])
	}
	if base > 0 {
		r.layers["gen.trace_overhead_frac"] = extra / base
	}
	return nil
}

// call performs one set-up or check request and returns the reply
// body, which stays valid until l's next request.
func call(ctx context.Context, l *loader, method, url, ctype string, body []byte) ([]byte, error) {
	var s sample
	var in io.Reader
	if body != nil {
		in = bytes.NewReader(body)
	}
	l.send(ctx, &s, method, url, ctype, in, int64(len(body)))
	switch {
	case s.err != nil:
		return nil, fmt.Errorf("%s %s: %w", method, url, s.err)
	case s.status/100 != 2:
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, s.status, l.buf.String())
	}
	return l.buf.Bytes(), nil
}

// digestSink keeps the replay's digests alive so the compiler cannot
// drop the hashing they time.
var digestSink [sha256.Size]byte

// intakeDigests replays the daemon's two body digests per stateless
// request: one to classify the request's admission lane, one to key
// the graph cache.
func intakeDigests(body []byte, tr *tracer) {
	s := tr.begin("backboned.intake_digest_ms")
	digestSink = sha256.Sum256(body)
	digestSink = sha256.Sum256(body)
	tr.end(s)
}

// bodyRef is one serving body with its in-process reference outputs.
type bodyRef struct {
	body     []byte
	g        *repro.Graph
	backbone [sha256.Size]byte // nc backbone, csv
	eval     [sha256.Size]byte // normalized /evaluate report
	tables   map[string]*repro.Scores
}

// servingRefs parses each serving body and computes its nc backbone
// digest, checking the nc and df kept shares against their bands;
// withEval adds the /evaluate report digest.
func servingRefs(ctx context.Context, r *run, withEval bool) ([]*bodyRef, error) {
	var refs []*bodyRef
	for _, c := range servingBodies(r.cfg.seed, r.scale) {
		g, err := repro.ReadGraph(bytes.NewReader(c.body), repro.WithFormat("csv"))
		if err != nil {
			return nil, err
		}
		ref := &bodyRef{body: c.body, g: g}
		for _, method := range []string{"nc", "df"} {
			res, err := repro.BackboneContext(ctx, g, repro.WithMethod(method))
			if err != nil {
				return nil, err
			}
			r.check(checkKept(r.cfg.scale, "body", method, res.EdgeCoverage))
			r.layers["filter.kept_frac."+method] += res.EdgeCoverage / float64(r.scale.bodies)
			if method == "nc" {
				var out bytes.Buffer
				if err := repro.WriteGraph(&out, res.Backbone); err != nil {
					return nil, err
				}
				ref.backbone = sha256.Sum256(out.Bytes())
			}
		}
		if withEval {
			rep, err := repro.CompareContext(ctx, g, repro.WithEvalConcurrency(1), repro.WithMethods(evalMethods...))
			if err != nil {
				return nil, err
			}
			if ref.eval, err = evalDigest(rep); err != nil {
				return nil, err
			}
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// evalDigest hashes an /evaluate report with its timings and cache
// flags cleared: those vary from call to call, the grading must not.
func evalDigest(rep *repro.EvalReport) ([sha256.Size]byte, error) {
	rep.DurationMs, rep.ScoredMethods, rep.CacheHits = 0, 0, 0
	for _, m := range rep.Methods {
		m.DurationMs, m.ScoreCached = 0, false
	}
	b, err := json.Marshal(rep)
	return sha256.Sum256(b), err
}

// checkEval reports whether an /evaluate reply matches want.
func checkEval(body []byte, want [sha256.Size]byte) bool {
	var rep repro.EvalReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return false
	}
	got, err := evalDigest(&rep)
	return err == nil && got == want
}

func runServeHot(ctx context.Context, r *run) error {
	refs, err := servingRefs(ctx, r, true)
	if err != nil {
		return err
	}
	const backbone, evaluate = 0, 1
	evalPath := "/evaluate?methods=" + strings.Join(evalMethods, ",")
	var out bytes.Buffer
	return runServing(ctx, r, &serving{
		kinds: []string{"backbone", "evaluate"},
		slo:   50 * time.Millisecond,
		plan: func(d time.Duration) []arrival {
			rng := rand.New(rand.NewSource(r.cfg.seed*1000 + 3))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(refs)-1))
			mix := &dealer{deck: []int{backbone, backbone, backbone, backbone, evaluate}}
			return pacedPlan(rng, hotRate, d, func(rng *rand.Rand) (int, int) {
				return mix.next(rng), int(zipf.Uint64())
			})
		},
		setUp: func(ctx context.Context, d *daemon, l *loader) error {
			for _, ref := range refs {
				got, err := call(ctx, l, http.MethodPost, d.url+"/backbone?method=nc", "text/csv", ref.body)
				if err != nil {
					return err
				}
				if sha256.Sum256(got) != ref.backbone {
					return fmt.Errorf("warm-up /backbone reply differs from the reference")
				}
				got, err = call(ctx, l, http.MethodPost, d.url+evalPath, "text/csv", ref.body)
				if err != nil {
					return err
				}
				if !checkEval(got, ref.eval) {
					return fmt.Errorf("warm-up /evaluate reply differs from the reference")
				}
			}
			return nil
		},
		do: func(ctx context.Context, d *daemon, s *sample, l *loader) {
			ref := refs[s.arg]
			path := "/backbone?method=nc"
			if s.kind == evaluate {
				path = evalPath
			}
			l.send(ctx, s, http.MethodPost, d.url+path, "text/csv", bytes.NewReader(ref.body), int64(len(ref.body)))
			if !s.ok() {
				return
			}
			if s.kind == backbone {
				s.wrong = sha256.Sum256(l.buf.Bytes()) != ref.backbone
			} else {
				s.wrong = !checkEval(l.buf.Bytes(), ref.eval)
			}
		},
		prepare: func(ctx context.Context) error {
			for _, ref := range refs {
				ref.tables = map[string]*repro.Scores{}
				for _, m := range evalMethods {
					if mm, _ := repro.LookupMethod(m); !mm.CanScore() {
						continue
					}
					sc, err := repro.ScoreContext(ctx, ref.g, repro.WithMethod(m))
					if err != nil {
						return err
					}
					ref.tables[m] = sc
				}
			}
			return nil
		},
		replay: func(ctx context.Context, a arrival, tr *tracer) error {
			ref := refs[a.arg]
			out.Reset()
			intakeDigests(ref.body, tr)
			if a.kind == backbone {
				return extractAndWrite(ctx, ref.g, "nc", ref.tables["nc"], &out, tr)
			}
			s := tr.begin("eval.compare_ms")
			rep, err := repro.CompareContext(ctx, ref.g, repro.WithEvalConcurrency(1), repro.WithMethods(evalMethods...),
				repro.WithScoreSource(func(_ context.Context, m *repro.Method) (*repro.Scores, bool, error) {
					return ref.tables[m.Name], true, nil
				}))
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("backboned.encode_json_ms")
			err = json.NewEncoder(&out).Encode(rep)
			tr.end(s)
			return err
		},
	})
}

// extractAndWrite prunes a cached table at the method's default
// threshold and writes the backbone as csv: a cache-hit reply.
func extractAndWrite(ctx context.Context, g *repro.Graph, method string, sc *repro.Scores, out *bytes.Buffer, tr *tracer) error {
	s := tr.begin("filter.extract_ms")
	res, err := repro.BackboneContext(ctx, g, repro.WithMethod(method), repro.WithScores(sc))
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("graph.write_csv_ms")
	err = repro.WriteGraph(out, res.Backbone, repro.WithFormat("csv"))
	tr.end(s)
	return err
}

func runServeCold(ctx context.Context, r *run) error {
	refs, err := servingRefs(ctx, r, false)
	if err != nil {
		return err
	}
	// A trailing comment makes every body unique, so each request
	// misses both caches, without changing the graph it carries.
	comment := func(tag string) string { return fmt.Sprintf("# seed %d %s\n", r.cfg.seed, tag) }
	post := func(ctx context.Context, d *daemon, s *sample, l *loader, ref *bodyRef, tag string) {
		c := comment(tag)
		body := io.MultiReader(bytes.NewReader(ref.body), strings.NewReader(c))
		l.send(ctx, s, http.MethodPost, d.url+"/backbone?method=nc", "text/csv", body, int64(len(ref.body)+len(c)))
		if s.ok() {
			s.wrong = sha256.Sum256(l.buf.Bytes()) != ref.backbone
		}
	}
	var out bytes.Buffer
	err = runServing(ctx, r, &serving{
		kinds: []string{"backbone"},
		slo:   200 * time.Millisecond,
		plan: func(d time.Duration) []arrival {
			rng := rand.New(rand.NewSource(r.cfg.seed*1000 + 4))
			return pacedPlan(rng, coldRate, d, func(rng *rand.Rand) (int, int) { return 0, rng.Intn(len(refs)) })
		},
		setUp: func(ctx context.Context, d *daemon, l *loader) error {
			for i, ref := range refs[:2] {
				var s sample
				post(ctx, d, &s, l, ref, "warm-up "+strconv.Itoa(i))
				if !s.ok() {
					return fmt.Errorf("warm-up request: status %d, err %v, wrong output %v", s.status, s.err, s.wrong)
				}
			}
			return nil
		},
		do: func(ctx context.Context, d *daemon, s *sample, l *loader) {
			post(ctx, d, s, l, refs[s.arg], "arrival "+strconv.Itoa(s.seq))
		},
		replay: func(ctx context.Context, a arrival, tr *tracer) error {
			ref := refs[a.arg]
			body := append(append([]byte(nil), ref.body...), comment("arrival "+strconv.Itoa(a.seq))...)
			intakeDigests(body, tr)
			s := tr.begin("graph.read_csv_ms")
			g, err := repro.ReadGraph(bytes.NewReader(body), repro.WithDirected(false), repro.WithFormat("csv"))
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("filter.score_ms.nc")
			sc, err := repro.ScoreContext(ctx, g, repro.WithMethod("nc"))
			tr.end(s)
			if err != nil {
				return err
			}
			out.Reset()
			return extractAndWrite(ctx, g, "nc", sc, &out, tr)
		},
	})
	if v := r.layers["graph.read_csv_ms"]; v > 0 {
		r.layers["graph.read_csv_mb_per_s"] = float64(len(refs[0].body)) / 1e6 / (v / 1000)
	}
	return err
}
