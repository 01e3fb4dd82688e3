package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/binfmt"
	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/resilient"
)

// statusClientClosedRequest is the nginx-convention status logged when
// the client went away before the pipeline finished.
const statusClientClosedRequest = 499

// graphKey content-addresses one parsed request body: the hash of the
// raw bytes plus everything else that shapes the resulting graph (the
// resolved input format or sniff/envelope mode, and directedness).
type graphKey struct {
	sum      [sha256.Size]byte
	mode     string // format name, "sniff", or "envelope"
	directed bool
}

// scoreKey addresses one method's significance table for one parsed
// graph. Method parameters are deliberately absent: they only move
// pruning thresholds, never the table, so a client re-posting the same
// network with a different delta scores nothing at all.
type scoreKey struct {
	g      graphKey
	method string
}

// serverConfig bundles the daemon's run controls.
type serverConfig struct {
	workers int           // hard concurrency cap (admission MaxConcurrent)
	timeout time.Duration // per-request wall clock budget
	maxBody int64
	// staticAdmission pins the concurrency limit at workers instead of
	// adapting it (-admission=static); lanes and deadline-aware
	// admission still apply.
	staticAdmission bool
	// admissionCfg, when non-nil, overrides the derived admission
	// config entirely (tests tune cooldowns, queues and clocks);
	// MaxConcurrent defaults to workers if left zero.
	admissionCfg *admission.Config
	// graphCacheBytes / scoreCacheBytes bound the content-addressed
	// caches; 0 disables one.
	graphCacheBytes int64
	scoreCacheBytes int64
	// graphDir, when non-empty, names a directory of pre-converted
	// <sha256>.bbg files (see backbone -convert -graphdir): a request
	// body whose digest names one is memory-mapped, not parsed.
	graphDir string
	// fleet, when non-nil, routes each scoring request body to its
	// owning peer by content digest and falls back to local execution
	// when that peer cannot answer.
	fleet *fleet.Fleet
	// fault, when non-nil, chaos-injects errors/latency/truncation
	// into the local serving path (-chaos and the fault-injection
	// tests).
	fault *resilient.Fault
	// maxSessions bounds resident incremental sessions (POST /session);
	// 0 selects defaultMaxSessions. The least-recently-used session is
	// evicted past the bound.
	maxSessions int
	logf        func(format string, args ...any)
}

// server is the backboned HTTP front end: a mux over the method
// registry plus the shared run controls every request goes through —
// the adaptive worker pool, the per-request timeout, the typed-error to
// status-code mapping, and the content-addressed caches that let
// repeated identical bodies skip parsing and scoring. The counters are
// documented where they are exposed, in the metrics table (metrics.go).
type server struct {
	mux *http.ServeMux
	// limiter is the adaptive, lane-aware worker-pool admission path
	// (internal/admission): AIMD concurrency limit under the -workers
	// hard cap, deadline-aware queueing, fast/cold priority lanes.
	limiter *admission.Limiter
	timeout time.Duration // per-request wall clock budget
	maxBody int64
	logf    func(format string, args ...any)
	metrics []metric
	// graphs memoizes parsed request bodies; scores memoizes per-method
	// significance tables. Either may be nil (disabled) — the nil LRU
	// computes without caching.
	graphs *cache.LRU[graphKey, *repro.Graph]
	scores *cache.LRU[scoreKey, *repro.Scores]
	start  time.Time
	// graphDir is the -graphdir root ("" disables the mmap fast path);
	// mmapFiles memoizes one load attempt per body digest — mapped
	// graphs are shared by every request for the life of the process
	// and never closed, so handing them out without refcounting is safe.
	graphDir  string
	mmapMu    sync.Mutex
	mmapFiles map[[sha256.Size]byte]*mmapEntry
	// fleet is nil in single-node mode. fault is nil without -chaos.
	fleet *fleet.Fleet
	fault *resilient.Fault
	// Incremental sessions (POST /session and friends, session.go):
	// sessMu guards the map and each session's lastUsed recency stamp.
	sessMu      sync.Mutex
	sessions    map[string]*session
	maxSessions int
	// draining flips when graceful shutdown begins: /readyz turns 503
	// so load balancers and peers stop routing here, while /healthz
	// stays 200 (the process is alive, just leaving).
	draining atomic.Bool
	// onError observes every request failure after status mapping; a
	// test hook, nil outside tests.
	onError func(status int, err error)

	requests, evalRequests, evalCacheSkips             atomic.Uint64
	expiredArrivals, expiredBeforeScoring              atomic.Uint64
	deadlineViolations                                 atomic.Uint64
	mmapHits, mmapLoads, mmapMisses, mmapErrors        atomic.Uint64
	mmapSections, mmapBytes                            atomic.Int64
	sessionCreates, sessionUpdates, sessionReads       atomic.Uint64
	sessionDeletes, sessionEvictions, sessionOwnerMiss atomic.Uint64
	sessionInvalidations, sessionRescoredRows          atomic.Uint64
	sessionFullRescores                                atomic.Uint64
}

func newServer(cfg serverConfig) *server {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	acfg := admission.Config{MaxConcurrent: cfg.workers, Adaptive: !cfg.staticAdmission}
	if cfg.admissionCfg != nil {
		acfg = *cfg.admissionCfg
		if acfg.MaxConcurrent == 0 {
			acfg.MaxConcurrent = cfg.workers
		}
	}
	limiter, err := admission.NewLimiter(acfg)
	if err != nil {
		// Unreachable: workers is floored to 1 above and the override
		// path fills MaxConcurrent; fail loud rather than serve unbounded.
		panic(err)
	}
	s := &server{
		mux:       http.NewServeMux(),
		limiter:   limiter,
		timeout:   cfg.timeout,
		maxBody:   cfg.maxBody,
		logf:      cfg.logf,
		graphs:    cache.New[graphKey, *repro.Graph](cfg.graphCacheBytes),
		scores:    cache.New[scoreKey, *repro.Scores](cfg.scoreCacheBytes),
		graphDir:  cfg.graphDir,
		mmapFiles: map[[sha256.Size]byte]*mmapEntry{},
		fleet:     cfg.fleet,
		fault:     cfg.fault,
		start:     time.Now(),

		sessions:    map[string]*session{},
		maxSessions: cfg.maxSessions,
	}
	if s.maxSessions <= 0 {
		s.maxSessions = defaultMaxSessions
	}
	s.metrics = s.metricTable()
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/methods", s.handleMethods)
	s.mux.HandleFunc("/formats", s.handleFormats)

	// The work endpoints: one op each on the shared skeleton (serve.go).
	// The stateless ones work on the posted body alone, so any peer may
	// compute them.
	stateless := func(classify func(*call) (admission.Lane, string), execute func(*call) error) op {
		return op{allow: http.MethodPost, route: byBody, degrade: true, classify: classify, resolve: s.resolveBody, execute: execute}
	}
	evaluate := stateless(s.classifyEvaluate, s.evaluate)
	evaluate.counter = &s.evalRequests
	s.mux.HandleFunc("/backbone", s.serve(stateless(s.classifyRun, s.runStateless(false))))
	s.mux.HandleFunc("/score", s.serve(stateless(s.classifyRun, s.runStateless(true))))
	s.mux.HandleFunc("/evaluate", s.serve(evaluate))
	s.mux.HandleFunc("POST /session", s.serve(op{route: byBody,
		classify: fixedLane(admission.Cold, "session-create"), resolve: s.resolveBody, execute: s.createSession}))
	s.mux.HandleFunc("POST /session/{id}/update", s.serve(op{route: bySessionBody,
		classify: fixedLane(admission.Fast, "session-update"), resolve: s.lookupSession, execute: s.updateSession}))
	s.mux.HandleFunc("GET /session/{id}/backbone", s.serve(op{route: bySession,
		classify: s.classifySessionRead, resolve: s.lookupSession, execute: s.readSession(false)}))
	s.mux.HandleFunc("GET /session/{id}/score", s.serve(op{route: bySession,
		classify: s.classifySessionRead, resolve: s.lookupSession, execute: s.readSession(true)}))
	s.mux.HandleFunc("DELETE /session/{id}", s.serve(op{route: bySession, execute: s.deleteSession}))
	return s
}

// graphCost approximates a parsed graph's resident bytes: canonical
// edges, CSR arcs, strengths, labels and the label index.
func graphCost(g *repro.Graph) int64 {
	cost := int64(g.NumEdges())*56 + int64(g.NumNodes())*28 + 256
	for _, l := range g.Labels() {
		cost += int64(len(l)) * 2 // label storage + index key
	}
	return cost
}

// scoresCost approximates a significance table's resident bytes. The
// graph it references is accounted by the graph cache.
func scoresCost(sc *repro.Scores) int64 {
	cost := int64(len(sc.Score))*8 + 128
	for _, col := range sc.Aux {
		cost += int64(len(col)) * 8
	}
	return cost
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// fail writes a JSON error body with the status implied by the error's
// type and notifies the test hook.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	if s.onError != nil {
		s.onError(status, err)
	}
	s.logf("error: %d %v", status, err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// statusFor maps pipeline errors onto HTTP statuses: an httpError
// carries its own, the exported sentinel/typed errors are caller
// mistakes (400), context expiry is a timeout (504), a vanished client
// is 499, anything else is a 500.
func statusFor(err error) int {
	var pe *repro.ParamError
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, repro.ErrUnknownMethod),
		errors.Is(err, repro.ErrUnknownParam),
		errors.Is(err, repro.ErrNoScorer),
		errors.Is(err, repro.ErrUnknownFormat),
		errors.Is(err, repro.ErrLineTooLong),
		errors.As(err, &pe):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// httpError is a failure whose status its type alone does not imply: a
// malformed body, an unknown session.
type httpError struct {
	status int
	error
}

func (e *httpError) Unwrap() error { return e.error }

func errorf(status int, format string, args ...any) error {
	return &httpError{status, fmt.Errorf(format, args...)}
}

// parseFailure is a body that did not parse: a caller mistake, unless
// the request's own context expired meanwhile (a cache follower can
// observe its cancellation while waiting on the leader's parse).
func parseFailure(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &httpError{http.StatusBadRequest, err}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `backboned — network backboning as a service

GET  /methods            registered methods and their parameter schemas (JSON)
GET  /formats            registered edge-list formats (JSON)
GET  /healthz            liveness probe (200 until the process exits)
GET  /readyz             routability probe (503 once SIGTERM drain begins)
GET  /statsz             uptime, request, cache, admission, session and fleet counters (JSON)
GET  /metricsz           the same counters in Prometheus text exposition format
POST /backbone           extract a backbone from the edge list in the body
POST /score              per-edge significance table for the body's edge list
POST /evaluate           grade every method on the body's edge list (JSON report)
POST /session            open an incremental session over the body's edge list
POST /session/{id}/update   apply batched edge upserts/deletes to a session
GET  /session/{id}/backbone backbone of the session's current edge set (incremental)
GET  /session/{id}/score    score table of the session's current edge set (incremental)
DELETE /session/{id}        close a session

Query parameters for POST: method (default nc), any method parameter
(delta, alpha, ...), top, frac, parallel, directed, format (input),
outformat (csv|tsv|ndjson), response=json. The body is an edge list in
any registered format (gzip accepted, format sniffed), or a JSON
envelope {"method":..., "params":{...}, "edges":[{"src":..,"dst":..,"weight":..}]}.

POST /evaluate compares every registered method (or ?methods=nc,df,...)
at one common backbone size (?top= / ?frac=, default the top 10% of
edges) under the paper's criteria and returns the scored ranking as
JSON; undefined criteria (NaN) encode as null.

Responses carry X-Backbone-Cache: "hit" when a content-addressed cache
match let the request skip parsing and scoring, else "miss". Re-posting
the same body with different method parameters (delta, alpha, top, ...)
is always a hit: parameters move thresholds, never the score table.
/evaluate reports "hit" when every method's table was cached — the
whole comparison ran without scoring a single edge.

Admission is adaptive (AIMD under the -workers hard cap) with two
priority lanes: requests whose score tables are already cached take the
fast lane; cold scoring queues behind a reserved-slot cold lane. A 503
response carries a Retry-After computed from current queue depth and
observed latency. Requests may carry X-Backbone-Deadline (remaining
budget, integer milliseconds); an exhausted budget is refused with 504
before any work runs, and fleet forwards re-stamp the header minus the
estimated transit cost per attempt.

Sessions make updates cheap: POST /session parses the body once and
answers with a session ID; POST /session/{id}/update applies batched
edge upserts/deletes ({"updates":[{"src":"a","dst":"b","weight":2}]},
weight 0 deletes); GET /session/{id}/backbone|/score answer for the
updated edge set by re-scoring only the rows the updates could have
changed — bit-identical to re-posting the whole modified edge list,
without re-parsing, rebuilding or re-scoring it. Responses carry
X-Backbone-Rescored (rows re-scored by this read) next to the usual
headers. Sessions are bounded by -max-sessions (LRU-evicted past it)
and closed with DELETE /session/{id}.

In fleet mode (-peers/-self) each request body is routed to its owning
peer by content digest; responses carry X-Backbone-Served-By (the peer
that computed the answer) and, when the owner was unreachable and this
peer computed the result itself, X-Backbone-Degraded with the reason
(peer-unavailable | breaker-open). Session IDs embed the creating
body's digest, so session traffic pins to the body's rendezvous owner;
because only the owner holds the session state, an unreachable owner
is a 503 (retry later), never a degraded local answer.
`)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the routability probe: 200 while the daemon accepts
// new work, 503 the moment SIGTERM drain begins — so a load balancer
// or fleet peer stops sending traffic to a process that is on its way
// out, while /healthz keeps answering 200 (alive, not ready).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// beginDrain flips /readyz to 503. Called once when graceful shutdown
// starts, before in-flight requests are drained.
func (s *server) beginDrain() { s.draining.Store(true) }

// paramJSON / methodJSON are the wire form of the registry schema.
type paramJSON struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Integer bool    `json:"integer,omitempty"`
	Desc    string  `json:"desc"`
}

type methodJSON struct {
	Name      string      `json:"name"`
	Title     string      `json:"title"`
	Desc      string      `json:"desc"`
	Params    []paramJSON `json:"params"`
	CanScore  bool        `json:"can_score"`
	FixedSize bool        `json:"fixed_size,omitempty"`
	Parallel  bool        `json:"parallel,omitempty"`
}

func (s *server) handleMethods(w http.ResponseWriter, r *http.Request) {
	var out []methodJSON
	for _, m := range repro.Methods() {
		mj := methodJSON{
			Name:      m.Name,
			Title:     m.Title,
			Desc:      m.Desc,
			Params:    []paramJSON{},
			CanScore:  m.CanScore(),
			FixedSize: m.FixedSize,
			Parallel:  m.ParallelScorer != nil,
		}
		for _, p := range m.Params {
			mj.Params = append(mj.Params, paramJSON{Name: p.Name, Default: p.Default, Integer: p.Integer, Desc: p.Desc})
		}
		out = append(out, mj)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

type formatJSON struct {
	Name    string   `json:"name"`
	Exts    []string `json:"exts"`
	Desc    string   `json:"desc"`
	Sniffed bool     `json:"sniffed"`
}

func (s *server) handleFormats(w http.ResponseWriter, r *http.Request) {
	var out []formatJSON
	for _, f := range repro.Formats() {
		out = append(out, formatJSON{Name: f.Name, Exts: f.Exts, Desc: f.Desc, Sniffed: f.Sniff != nil})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// runRequest is a parsed /backbone, /score or session read: the graph,
// the selected method, and the pipeline options and response shaping
// derived from the query string and (optionally) the JSON envelope.
// /evaluate reads its options into one too, with no method selected.
type runRequest struct {
	g         *repro.Graph
	method    *repro.Method
	topSet    bool // a top/frac pruning option is present
	parallel  bool
	opts      []repro.Option
	outFormat string
	asJSON    bool
}

// queryReserved are the query keys with fixed meanings; every other
// key must name a parameter of the selected method (/evaluate: of some
// compared method). /evaluate accepts "outformat" and "response" as
// no-ops (its report is always JSON) so clients can carry /backbone
// query habits over.
var queryReserved = map[string]bool{
	"method": true, "top": true, "frac": true, "parallel": true,
	"directed": true, "format": true, "outformat": true, "response": true,
}

// envelope is the JSON request body alternative to a raw edge list.
// Query parameters override envelope fields.
type envelope struct {
	Method   string             `json:"method"`
	Params   map[string]float64 `json:"params"`
	Top      *int               `json:"top"`
	Frac     *float64           `json:"frac"`
	Parallel bool               `json:"parallel"`
	Directed bool               `json:"directed"`
	Edges    []envelopeEdge     `json:"edges"`
}

type envelopeEdge struct {
	Src    any      `json:"src"`
	Dst    any      `json:"dst"`
	Weight *float64 `json:"weight"`
}

// contentTypeFormat maps common edge-list content types to registered
// format names; empty means sniff.
func contentTypeFormat(ct string) string {
	switch ct {
	case "text/csv":
		return "csv"
	case "text/tab-separated-values":
		return "tsv"
	case "application/x-ndjson", "application/ndjson", "application/jsonl":
		return "ndjson"
	}
	return ""
}

// buildEnvelopeGraph constructs the graph carried inline in a JSON
// envelope.
func buildEnvelopeGraph(env *envelope, directed bool) (*repro.Graph, error) {
	b := repro.NewBuilder(directed)
	for i, e := range env.Edges {
		src, err := graph.JSONLabel(e.Src)
		if err != nil {
			return nil, fmt.Errorf("edges[%d].src: %v", i, err)
		}
		dst, err := graph.JSONLabel(e.Dst)
		if err != nil {
			return nil, fmt.Errorf("edges[%d].dst: %v", i, err)
		}
		if e.Weight == nil {
			return nil, fmt.Errorf("edges[%d]: missing weight", i)
		}
		if err := b.AddEdgeLabels(src, dst, *e.Weight); err != nil {
			return nil, fmt.Errorf("edges[%d]: %v", i, err)
		}
	}
	return b.Build(), nil
}

// mmapEntry memoizes one -graphdir load attempt for one body digest.
// The File reference keeps the mapping's owner reachable; the daemon
// never closes it (mapped graphs are shared across requests for the
// life of the process, and clean mapped pages are the kernel's to
// reclaim). A failed load records the file's stat identity at failure
// time so a later request can tell a healed file (re-converted in
// place: size or mtime moved) from the same corrupt bytes.
type mmapEntry struct {
	mu   sync.Mutex
	file *binfmt.File
	g    *repro.Graph
	// failed marks a load that errored on an existing file; failSize /
	// failTime are that file's stat identity when the load failed
	// (failSize -1 when even stat failed).
	failed   bool
	failSize int64
	failTime time.Time
}

// mmapGraph resolves a request-body digest against -graphdir: when
// <dir>/<hex-digest>.bbg exists and its directedness matches the
// request, the memory-mapped graph is returned and the body is never
// parsed. Each digest loads at most once, concurrent first requests
// included. A missing file is forgotten so a conversion that lands
// later is picked up. An unreadable or corrupt file is remembered as
// failed, but not forever: each later request re-stats the file and
// retries the load once the size or mtime moved, so re-running
// `backbone -convert` heals the entry without a daemon restart — while
// the unchanged corrupt file stays one counted error, not one per
// request. Either way the caller falls back to parsing the body it
// already holds — -graphdir is an accelerator, never a correctness
// dependency.
func (s *server) mmapGraph(sum [sha256.Size]byte, directed bool) *repro.Graph {
	if s.graphDir == "" {
		return nil
	}
	s.mmapMu.Lock()
	e, ok := s.mmapFiles[sum]
	if !ok {
		e = &mmapEntry{}
		s.mmapFiles[sum] = e
	}
	s.mmapMu.Unlock()

	e.mu.Lock()
	if e.g == nil {
		path := filepath.Join(s.graphDir, hex.EncodeToString(sum[:])+".bbg")
		attempt := true
		if e.failed {
			// Revalidate the memoized failure: only a file whose stat
			// identity changed (or vanished) is worth retrying.
			fi, err := os.Stat(path)
			attempt = err != nil || fi.Size() != e.failSize || !fi.ModTime().Equal(e.failTime)
		}
		if attempt {
			f, err := binfmt.Open(path)
			switch {
			case err == nil:
				e.file, e.g = f, f.Graph()
				e.failed = false
				s.mmapLoads.Add(1)
				s.mmapSections.Add(int64(f.Sections()))
				s.mmapBytes.Add(f.MappedBytes())
			case errors.Is(err, os.ErrNotExist):
				s.mmapMisses.Add(1)
				s.mmapMu.Lock()
				delete(s.mmapFiles, sum)
				s.mmapMu.Unlock()
				e.mu.Unlock()
				return nil
			default:
				s.mmapErrors.Add(1)
				e.failed = true
				e.failSize, e.failTime = -1, time.Time{}
				if fi, statErr := os.Stat(path); statErr == nil {
					e.failSize, e.failTime = fi.Size(), fi.ModTime()
				}
				s.logf("graphdir: %v (parsing the body instead)", err)
			}
		}
	}
	g := e.g
	e.mu.Unlock()
	if g == nil {
		return nil
	}
	if g.Directed() != directed {
		// The file header records how the graph was converted; a request
		// asking for the other orientation parses the body as usual.
		s.mmapMisses.Add(1)
		return nil
	}
	s.mmapHits.Add(1)
	return g
}

// resolveBody turns the request body into a graph through the
// content-addressed cache: identical bodies parse once, concurrent
// identical bodies parse once between them. It handles both raw edge
// lists (format from ?format=, the Content-Type, or sniffed) and JSON
// envelopes, and a raw body with a pre-converted -graphdir twin is
// memory-mapped instead of parsed (and instead of occupying LRU budget
// — the mapping is shared and the page cache owns the bytes).
func (s *server) resolveBody(c *call) error {
	if c.keyErr != nil {
		return c.keyErr
	}
	build := func() (*repro.Graph, error) {
		readOpts := []repro.IOOption{repro.WithDirected(c.key.directed)}
		if c.key.mode != "sniff" {
			readOpts = append(readOpts, repro.WithFormat(c.key.mode))
		}
		g, err := repro.ReadGraph(bytes.NewReader(c.body), readOpts...)
		if err != nil {
			return nil, fmt.Errorf("bad edge list: %w", err)
		}
		return g, nil
	}
	if c.key.mode == "envelope" {
		dec := json.NewDecoder(bytes.NewReader(c.body))
		dec.UseNumber()
		env := &envelope{}
		if err := dec.Decode(env); err != nil {
			return errorf(http.StatusBadRequest, "bad JSON envelope: %v", err)
		}
		if len(env.Edges) == 0 {
			return errorf(http.StatusBadRequest, "JSON envelope has no edges")
		}
		if c.q.Get("directed") == "" {
			c.key.directed = env.Directed
		}
		c.env = env
		build = func() (*repro.Graph, error) { return buildEnvelopeGraph(env, c.key.directed) }
	} else if mg := s.mmapGraph(c.key.sum, c.key.directed); mg != nil {
		c.g = mg
		return nil
	}
	g, _, err := s.graphs.Do(c.ctx, c.key, func() (*repro.Graph, int64, error) {
		g, err := build()
		if err != nil {
			return nil, 0, err
		}
		return g, graphCost(g), nil
	})
	if err != nil {
		return parseFailure(err)
	}
	c.g = g
	return nil
}

// parseRun reads a runRequest's method, options and response shaping
// from the query string and, when the body was a JSON envelope, the
// envelope's fields — the query overrides the envelope. outFormat is
// the input format the response mirrors unless ?outformat= says
// otherwise ("" for csv). A score request must pass the pipeline's own
// Score checks: its table comes from a cache, not from Score.
func parseRun(c *call, outFormat string, scoreOnly bool) (*runRequest, error) {
	methodName := "nc"
	if c.env != nil && c.env.Method != "" {
		methodName = c.env.Method
	}
	if v := c.q.Get("method"); v != "" {
		methodName = v
	}
	m, err := repro.LookupMethod(methodName)
	if err != nil {
		return nil, err
	}
	req := &runRequest{method: m, opts: []repro.Option{repro.WithMethod(m.Name)}, outFormat: outFormat}
	if err := req.addOptions(c.q, c.env); err != nil {
		return nil, err
	}
	if v := c.q.Get("outformat"); v != "" {
		f, err := repro.LookupFormat(v)
		if err != nil {
			return nil, err
		}
		req.outFormat = f.Name
	}
	if req.outFormat == "" {
		req.outFormat = "csv"
	}
	req.asJSON = c.q.Get("response") == "json" || strings.Contains(c.r.Header.Get("Accept"), "application/json")
	if scoreOnly {
		if err := repro.ValidateScore(req.opts...); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// addOptions appends the parameter, pruning and parallelism options
// every scoring endpoint shares: envelope fields first, then the query,
// which overrides them. Envelope pruning applies only when the query
// carries none — "query overrides envelope" must hold across option
// kinds, or an envelope "top" would silently beat a query ?frac= (the
// pipeline prefers topK whenever both are set). With a method selected,
// every non-reserved query key must be one of its parameters; /evaluate
// selects none here (the comparison engine checks that some compared
// method declares each) and also reserves "methods".
func (req *runRequest) addOptions(q url.Values, env *envelope) error {
	methodName := ""
	if req.method != nil {
		methodName = req.method.Name
	}
	if env != nil {
		for name, v := range env.Params {
			req.opts = append(req.opts, repro.WithParam(name, v))
		}
		if q.Get("top") == "" && q.Get("frac") == "" {
			if env.Top != nil {
				req.topSet = true
				req.opts = append(req.opts, repro.WithTopK(*env.Top))
			}
			if env.Frac != nil {
				req.topSet = true
				req.opts = append(req.opts, repro.WithTopFraction(*env.Frac))
			}
		}
		req.parallel = env.Parallel
	}
	for name, vals := range q {
		if queryReserved[name] || (req.method == nil && name == "methods") {
			continue
		}
		if req.method != nil {
			if _, ok := req.method.Param(name); !ok {
				return &repro.ParamError{Method: methodName, Param: name, Reason: "unknown query parameter", Err: repro.ErrUnknownParam}
			}
		}
		v, err := strconv.ParseFloat(vals[0], 64)
		if err != nil {
			return &repro.ParamError{Method: methodName, Param: name, Reason: fmt.Sprintf("not a number: %q", vals[0])}
		}
		req.opts = append(req.opts, repro.WithParam(name, v))
	}
	if v := q.Get("top"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return &repro.ParamError{Param: "top", Reason: fmt.Sprintf("not an integer: %q", v)}
		}
		req.topSet = true
		req.opts = append(req.opts, repro.WithTopK(k))
	}
	if v := q.Get("frac"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return &repro.ParamError{Param: "frac", Reason: fmt.Sprintf("not a number: %q", v)}
		}
		req.topSet = true
		req.opts = append(req.opts, repro.WithTopFraction(f))
	}
	if v := q.Get("parallel"); v == "true" || v == "1" {
		req.parallel = true
	}
	if req.parallel {
		req.opts = append(req.opts, repro.WithParallel())
	}
	return nil
}

// cachedScores resolves one method's significance table for a parsed
// body through the score cache with single-flight de-duplication:
// identical bodies with the same method score once, no matter how the
// method's parameters differ (they only move thresholds). Both
// /backbone and /evaluate ride this, so the two endpoints share one
// table per (body, method). The returned hit flag reports whether this
// call skipped scoring.
func (s *server) cachedScores(ctx context.Context, gkey graphKey, g *repro.Graph, method string, parallel bool) (*repro.Scores, bool, error) {
	key := scoreKey{g: gkey, method: method}
	return s.scores.Do(ctx, key, func() (*repro.Scores, int64, error) {
		if err := s.scoreGate(ctx); err != nil {
			return nil, 0, err
		}
		opts := []repro.Option{repro.WithMethod(method)}
		if parallel {
			opts = append(opts, repro.WithParallel())
		}
		sc, err := repro.ScoreContext(ctx, g, opts...)
		if err != nil {
			return nil, 0, err
		}
		return sc, scoresCost(sc), nil
	})
}

// classifyRun picks the admission lane and latency cost key for a
// /backbone or /score request before any slot is held. Fast lane means
// the method's significance table is already cached for this exact
// body — serving is pruning plus serialization, no scoring — so such
// requests are never starved behind cold scoring work. (An mmap-served
// -graphdir body additionally skips parsing, but its first-touch
// scoring is still cold work; once its table is cached it rides the
// fast lane like any other hit.) Envelope bodies classify
// conservatively: their method and directedness live in the undecoded
// JSON, so only the query's count.
func (s *server) classifyRun(c *call) (admission.Lane, string) {
	method := c.q.Get("method")
	if method == "" {
		method = "nc"
	}
	if s.scores.Contains(scoreKey{g: c.key, method: method}) {
		return admission.Fast, "cached"
	}
	return admission.Cold, method
}

// evalMethods is /evaluate's method narrowing from the query: ?methods=
// (a comma list) wins over ?method= (/backbone's singular spelling); ok
// is false when the query names neither.
func evalMethods(q url.Values) (names []string, ok bool) {
	if v := q.Get("methods"); v != "" {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		return names, true
	}
	if v := q.Get("method"); v != "" {
		return []string{v}, true
	}
	return nil, false
}

// classifyEvaluate is classifyRun for /evaluate: fast lane only when
// every selected method's table is cached, i.e. the whole comparison
// runs without scoring a single edge.
func (s *server) classifyEvaluate(c *call) (admission.Lane, string) {
	methods, ok := evalMethods(c.q)
	if !ok {
		for _, m := range repro.Methods() {
			if !m.CanScore() {
				// An extract-only method has no cacheable table; the
				// comparison will run it cold.
				return admission.Cold, "evaluate"
			}
			methods = append(methods, m.Name)
		}
	}
	if c.key.mode == "envelope" || len(methods) == 0 {
		return admission.Cold, "evaluate"
	}
	for _, name := range methods {
		if !s.scores.Contains(scoreKey{g: c.key, method: name}) {
			return admission.Cold, "evaluate"
		}
	}
	return admission.Fast, "cached"
}

// tableSource resolves the selected method's table for the request's
// graph: the content-addressed score cache for stateless requests, the
// session's incremental tables for session reads. hit reports that
// nothing was scored.
type tableSource func(m *repro.Method, parallel bool) (sc *repro.Scores, hit bool, err error)

// table is the first half of the execute step /backbone, /score and
// the session reads share. It returns the method's table when one is
// worth having (nil when the method extracts directly) and whether
// serving it scored nothing. A precomputed table only helps when
// something will prune it: top/frac, the method's own Cut rule, or a
// score response. A scorer without Cut (ds) otherwise runs its
// Extractor as always. An extract-only method cannot answer a score
// request; the pipeline names the typed error.
func (s *server) table(c *call, req *runRequest, scoreOnly bool, src tableSource) (*repro.Scores, bool, error) {
	if req.method.CanScore() && (scoreOnly || req.topSet || req.method.Cut != nil) {
		return src(req.method, req.parallel)
	}
	if !scoreOnly {
		return nil, false, nil
	}
	if err := s.scoreGate(c.ctx); err != nil {
		return nil, false, err
	}
	if _, err := repro.ScoreContext(c.ctx, req.g, req.opts...); err != nil {
		return nil, false, err
	}
	return nil, false, fmt.Errorf("method %q produced no table", req.method.Name)
}

// respond is the second half: a score request writes the table, a
// backbone request prunes it (or extracts) and writes the backbone.
func (s *server) respond(c *call, req *runRequest, scoreOnly bool, scores *repro.Scores) error {
	if scoreOnly {
		c.outcome = admission.OK
		s.writeScores(c.w, req, scores)
		return nil
	}
	if err := s.scoreGate(c.ctx); err != nil {
		return err
	}
	opts := req.opts
	if scores != nil {
		opts = append(opts, repro.WithScores(scores))
	}
	res, err := repro.BackboneContext(c.ctx, req.g, opts...)
	if err != nil {
		return err
	}
	c.outcome = admission.OK
	s.writeBackbone(c.w, req, res)
	return nil
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// runStateless executes POST /backbone or /score on the resolved body:
// score through the score cache, prune, respond. X-Backbone-Cache
// reports "hit" when a cached table let the request skip both parsing
// and scoring, else "miss".
func (s *server) runStateless(scoreOnly bool) func(*call) error {
	return func(c *call) error {
		outFormat := c.key.mode
		if outFormat == "sniff" || outFormat == "envelope" {
			outFormat = ""
		}
		req, err := parseRun(c, outFormat, scoreOnly)
		if err != nil {
			return err
		}
		req.g = c.g
		scores, hit, err := s.table(c, req, scoreOnly, func(m *repro.Method, parallel bool) (*repro.Scores, bool, error) {
			return s.cachedScores(c.ctx, c.key, c.g, m.Name, parallel)
		})
		if err != nil {
			return err
		}
		if scores != nil {
			// A cached table references its own (identical-content)
			// graph; pruning and coverage must use that same value.
			req.g = scores.G
		}
		c.w.Header().Set("X-Backbone-Cache", cacheHeader(hit))
		return s.respond(c, req, scoreOnly, scores)
	}
}

// evaluate executes POST /evaluate: one registry-wide, size-matched
// method comparison of the body's network as a JSON report. Every
// method's table resolves through the shared score cache, so tables
// computed by earlier /backbone, /score or /evaluate calls on the same
// body are reused (X-Backbone-Cache: hit when all were) and concurrent
// identical evaluations coalesce per method.
func (s *server) evaluate(c *call) error {
	// Method narrowing: the query's, then the envelope's method field;
	// with none of them every registered method is compared. Name
	// validation is the engine's (unknown method → 400 via statusFor).
	methods, ok := evalMethods(c.q)
	if !ok && c.env != nil && c.env.Method != "" {
		methods = []string{c.env.Method}
	}
	if err := s.scoreGate(c.ctx); err != nil {
		return err
	}
	// Concurrency 1: one admitted /evaluate request runs at most one
	// scoring computation at a time, so -workers stays an honest cap on
	// concurrent scoring regardless of how many methods are compared.
	req := &runRequest{opts: []repro.Option{repro.WithEvalConcurrency(1)}}
	if len(methods) > 0 {
		req.opts = append(req.opts, repro.WithMethods(methods...))
	}
	if err := req.addOptions(c.q, c.env); err != nil {
		return err
	}
	req.opts = append(req.opts, repro.WithScoreSource(func(ctx context.Context, m *repro.Method) (*repro.Scores, bool, error) {
		return s.cachedScores(ctx, c.key, c.g, m.Name, req.parallel)
	}))
	rep, err := repro.CompareContext(c.ctx, c.g, req.opts...)
	if err != nil {
		return err
	}
	c.outcome = admission.OK
	s.evalCacheSkips.Add(uint64(rep.CacheHits))

	// Hit means every needed table was cached: zero scoring ran.
	c.w.Header().Set("X-Backbone-Cache", cacheHeader(rep.ScoredMethods > 0 && rep.CacheHits == rep.ScoredMethods))
	c.w.Header().Set("X-Backbone-Eval-Methods", strconv.Itoa(len(rep.Methods)))
	c.w.Header().Set("X-Backbone-Eval-Scored", strconv.Itoa(rep.ScoredMethods))
	c.w.Header().Set("X-Backbone-Eval-Cached", strconv.Itoa(rep.CacheHits))
	c.w.Header().Set("X-Backbone-Duration-Ms", strconv.FormatInt(rep.DurationMs, 10))
	c.w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(c.w).Encode(rep); err != nil {
		s.logf("write evaluate response: %v", err)
	}
	return nil
}

// responseContentType maps a registered format name to its media type.
func responseContentType(format string) string {
	switch format {
	case "csv":
		return "text/csv; charset=utf-8"
	case "tsv":
		return "text/tab-separated-values; charset=utf-8"
	case "ndjson":
		return "application/x-ndjson"
	}
	return "text/plain; charset=utf-8"
}

// edgeJSON is one backbone edge in JSON responses.
type edgeJSON struct {
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Weight float64 `json:"weight"`
	Score  float64 `json:"score,omitempty"`
}

// graphEdges flattens a graph's canonical edges into wire form.
func graphEdges(g *repro.Graph) []edgeJSON {
	out := make([]edgeJSON, 0, g.NumEdges())
	for _, e := range g.Edges() {
		out = append(out, edgeJSON{Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)), Weight: e.Weight})
	}
	return out
}

func (s *server) writeBackbone(w http.ResponseWriter, req *runRequest, res *repro.Result) {
	params, _ := json.Marshal(res.Params)
	w.Header().Set("X-Backbone-Method", res.Method)
	w.Header().Set("X-Backbone-Params", string(params))
	w.Header().Set("X-Backbone-Edges", strconv.Itoa(res.Backbone.NumEdges()))
	w.Header().Set("X-Backbone-Duration-Ms", strconv.FormatInt(res.Duration.Milliseconds(), 10))
	if req.asJSON {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"method":        res.Method,
			"title":         res.Title,
			"params":        res.Params,
			"input_nodes":   req.g.NumNodes(),
			"input_edges":   req.g.NumEdges(),
			"nodes":         res.Backbone.NumConnected(),
			"edges":         len(res.Backbone.Edges()),
			"node_coverage": res.NodeCoverage,
			"edge_coverage": res.EdgeCoverage,
			"duration_ms":   res.Duration.Milliseconds(),
			"backbone":      graphEdges(res.Backbone),
		})
		return
	}
	w.Header().Set("Content-Type", responseContentType(req.outFormat))
	if err := repro.WriteGraph(w, res.Backbone, repro.WithFormat(req.outFormat)); err != nil {
		s.logf("write response: %v", err)
	}
}

func (s *server) writeScores(w http.ResponseWriter, req *runRequest, scores *repro.Scores) {
	g := scores.G
	edges := g.Edges()
	w.Header().Set("X-Backbone-Method", scores.Method)
	w.Header().Set("X-Backbone-Edges", strconv.Itoa(len(edges)))
	if req.asJSON {
		rows := make([]edgeJSON, 0, len(edges))
		for i, e := range edges {
			rows = append(rows, edgeJSON{
				Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)),
				Weight: e.Weight, Score: scores.Score[i],
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"method": scores.Method, "scores": rows})
		return
	}
	w.Header().Set("Content-Type", responseContentType(req.outFormat))
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	switch req.outFormat {
	case "ndjson":
		enc := json.NewEncoder(bw)
		for i, e := range edges {
			enc.Encode(edgeJSON{
				Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)),
				Weight: e.Weight, Score: scores.Score[i],
			})
		}
	default:
		sep := ","
		if req.outFormat == "tsv" {
			sep = "\t"
		}
		fmt.Fprintf(bw, "src%sdst%sweight%sscore\n", sep, sep, sep)
		for i, e := range edges {
			fmt.Fprintf(bw, "%s%s%s%s%s%s%s\n",
				g.LabelOrID(int(e.Src)), sep, g.LabelOrID(int(e.Dst)), sep,
				strconv.FormatFloat(e.Weight, 'g', -1, 64), sep,
				strconv.FormatFloat(scores.Score[i], 'g', -1, 64))
		}
	}
}
