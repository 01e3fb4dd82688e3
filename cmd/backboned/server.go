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
	"math"
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
	"repro/internal/eval"
	"repro/internal/filter"
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

// scoreKey addresses one score-cache entry for one parsed graph: a
// method's significance table, or, with extract set, the backbone its
// Extractor produces (mst; ds at its natural size), so ds's table and
// ds's extraction are two entries. Method parameters are deliberately
// absent. For a table they only move pruning thresholds, never the
// table, so a client re-posting the same network with a different delta
// scores nothing at all. An extraction may omit them only because
// Extractor.Extract(g) takes none.
type scoreKey struct {
	g       graphKey
	method  string
	extract bool
}

// scoreEntry is one score-cache value: a significance table, or under
// an extract key the extracted backbone, as the selection of all its
// edges.
type scoreEntry struct {
	table    *repro.Scores
	backbone repro.Selection
}

// serverConfig bundles the daemon's run controls.
type serverConfig struct {
	workers int           // hard concurrency cap (admission MaxConcurrent)
	timeout time.Duration // per-request wall clock budget
	maxBody int64
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
	// significance tables and extracted backbones. Either may be nil
	// (disabled) — the nil LRU computes without caching.
	graphs *cache.LRU[graphKey, *repro.Graph]
	scores *cache.LRU[scoreKey, scoreEntry]
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
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	s := &server{
		mux:       http.NewServeMux(),
		limiter:   admission.NewLimiter(admission.Config{MaxConcurrent: cfg.workers}),
		timeout:   cfg.timeout,
		maxBody:   cfg.maxBody,
		logf:      cfg.logf,
		graphs:    cache.New[graphKey, *repro.Graph](cfg.graphCacheBytes),
		scores:    cache.New[scoreKey, scoreEntry](cfg.scoreCacheBytes),
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
	s.mux.HandleFunc("/backbone", s.serve(stateless(classifyRun(false, s.cacheHeld, "cached"), s.run(false))))
	s.mux.HandleFunc("/score", s.serve(stateless(classifyRun(true, s.cacheHeld, "cached"), s.run(true))))
	s.mux.HandleFunc("/evaluate", s.serve(evaluate))
	s.mux.HandleFunc("POST /session", s.serve(op{route: byBody,
		classify: fixedLane(admission.Cold, "session-create"), resolve: s.resolveBody, execute: s.createSession}))
	s.mux.HandleFunc("POST /session/{id}/update", s.serve(op{route: bySessionBody,
		classify: fixedLane(admission.Fast, "session-update"), resolve: s.lookupSession, execute: s.updateSession}))
	s.mux.HandleFunc("GET /session/{id}/backbone", s.serve(op{route: bySession,
		classify: classifyRun(false, s.sessionHeld, "session-read"), resolve: s.resolveSessionRead, execute: s.run(false)}))
	s.mux.HandleFunc("GET /session/{id}/score", s.serve(op{route: bySession,
		classify: classifyRun(true, s.sessionHeld, "session-read"), resolve: s.resolveSessionRead, execute: s.run(true)}))
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

// scoresCost approximates a significance table's resident bytes: its
// columns, plus the worst case of the threshold cut it remembers (four
// bytes a row for the kept ids, one bit a node for the touched-node
// bitmap). The request's graph g is accounted by the graph cache; a
// view the table scored instead (hss and kcore score a directed
// input's undirected view) lives only in the table and is charged here.
func scoresCost(sc *repro.Scores, g *repro.Graph) int64 {
	cost := int64(len(sc.Score))*12 + int64(sc.G.NumNodes()+63)/64*8 + 128
	for _, col := range sc.Aux {
		cost += int64(len(col)) * 8
	}
	if sc.G != g {
		cost += graphCost(sc.G)
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
(delta, alpha, ...), top, frac, directed, format (input),
outformat (csv|tsv|ndjson), response=json. parallel is deprecated and
ignored: tables of 4096+ edges are scored on every CPU. The body is an
edge list in any registered format (gzip accepted, format sniffed), or
a JSON envelope {"method":..., "params":{...}, "edges":[{"src":..,"dst":..,"weight":..}]}.

POST /evaluate compares every registered method (or ?methods=nc,df,...)
at one common backbone size (?top= / ?frac=, default the top 10% of
edges) under the paper's criteria and returns the scored ranking as
JSON; undefined criteria (NaN) encode as null.

Responses carry X-Backbone-Cache: "hit" when the content-addressed score
cache held everything the request reads, so it scored and extracted
nothing, else "miss". A cut reads its method's score table, or, for mst
and for ds without top/frac, the backbone its extractor produces; the
cache keeps both per body. Re-posting the same body with different
method parameters (delta, alpha, top, ...) is a hit when it reads the
same entry: parameters move thresholds, never the table. /evaluate
reports "hit" when every compared method's entry was cached — the whole
comparison computed nothing.

Admission is adaptive (AIMD under the -workers hard cap) with two
priority lanes: a request whose every entry it reads is already held
(in the score cache, or in its session) takes the fast lane; cold work
queues behind a reserved-slot cold lane. A 503 response carries a
Retry-After computed from current queue depth and observed latency.
Requests may carry X-Backbone-Deadline (remaining budget, integer
milliseconds); an exhausted budget is refused with 504 before any work
runs, and fleet forwards re-stamp the header minus the estimated
transit cost per attempt.

Sessions make updates cheap: POST /session parses the body once and
answers with a session ID; POST /session/{id}/update applies batched
edge upserts/deletes ({"updates":[{"src":"a","dst":"b","weight":2}]},
weight 0 deletes); GET /session/{id}/backbone|/score answer for the
updated edge set by re-scoring only the rows the updates could have
changed — bit-identical to re-posting the whole modified edge list,
without re-parsing, rebuilding or re-scoring it. A session holds only
what a read serves without a full computation: the tables of the
current edge set, the df/nt tables one update behind (a frontier
rescore), and the extractions (mst; ds without top/frac) of the
current edge set; an update drops the rest. A session read is fast
exactly when its entry is held, and a repeat with no update between
answers "hit". Responses carry X-Backbone-Rescored (rows re-scored by
this read) next to the usual headers. Sessions are bounded by
-max-sessions (LRU-evicted past it) and closed with DELETE
/session/{id}.

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
		_, ranged := m.Scorer.(filter.RangeScorer)
		mj := methodJSON{
			Name:      m.Name,
			Title:     m.Title,
			Desc:      m.Desc,
			Params:    []paramJSON{},
			CanScore:  m.CanScore(),
			FixedSize: m.FixedSize,
			Parallel:  ranged,
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
	opts      []repro.Option
	outFormat string
	asJSON    bool
}

// queryReserved are the query keys with fixed meanings; every other
// key must name a parameter of the selected method (/evaluate: of some
// compared method). /evaluate accepts "outformat" and "response" as
// no-ops (its report is always JSON) so clients can carry /backbone
// query habits over. "parallel" is deprecated and ignored everywhere.
var queryReserved = map[string]bool{
	"method": true, "top": true, "frac": true, "parallel": true,
	"directed": true, "format": true, "outformat": true, "response": true,
}

// envelope is the JSON request body alternative to a raw edge list.
// Query parameters override envelope fields. A "parallel" field is
// deprecated and ignored, like the query key: scoring picks its worker
// count from the table size.
type envelope struct {
	Method   string             `json:"method"`
	Params   map[string]float64 `json:"params"`
	Top      *int               `json:"top"`
	Frac     *float64           `json:"frac"`
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
// — the mapping is shared and the page cache owns the bytes). A read
// of the body draws on the score cache's sources and mirrors its input
// format.
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
	} else {
		c.g = s.mmapGraph(c.key.sum, c.key.directed)
	}
	if c.g == nil {
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
	}
	if c.key.mode != "sniff" && c.key.mode != "envelope" {
		c.outFormat = c.key.mode
	}
	c.sources = c.t.sources(s.cacheSources(c))
	return nil
}

// parseRun reads a runRequest's method, options and response shaping
// from the query string and, when the body was a JSON envelope, the
// envelope's fields — the query overrides the envelope. The response
// mirrors the input format resolve found (csv for none) unless
// ?outformat= says otherwise.
func parseRun(c *call) (*runRequest, error) {
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
	req := &runRequest{g: c.g, method: m, opts: []repro.Option{repro.WithMethod(m.Name)}, outFormat: c.outFormat}
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
	return req, nil
}

// addOptions appends the parameter and pruning options
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
				req.opts = append(req.opts, repro.WithTopK(*env.Top))
			}
			if env.Frac != nil {
				req.opts = append(req.opts, repro.WithTopFraction(*env.Frac))
			}
		}
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
		req.opts = append(req.opts, repro.WithTopK(k))
	}
	if v := q.Get("frac"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return &repro.ParamError{Param: "frac", Reason: fmt.Sprintf("not a number: %q", v)}
		}
		req.opts = append(req.opts, repro.WithTopFraction(f))
	}
	return nil
}

// cacheSources are the score cache's two sources for the request's
// parsed body, with single-flight de-duplication. The score source
// keys a method's table by (body, method): identical bodies with the
// same method score once, no matter how the method's parameters differ
// (they only move thresholds). The extract source keys the backbone a
// method's Extractor produces (mst; ds at its natural size) under the
// same key with extract set, charged at its graphCost under the same
// byte budget and counters. /backbone, /score and /evaluate all read
// through them, so the endpoints share one table and one extraction per
// (body, method); Method.BackboneCtx decides which one a cut reads. The
// hit flags report whether a call computed nothing.
func (s *server) cacheSources(c *call) (repro.ScoreSource, repro.ExtractSource) {
	score := func(ctx context.Context, m *repro.Method) (*repro.Scores, bool, error) {
		e, hit, err := s.scores.Do(ctx, scoreKey{g: c.key, method: m.Name}, func() (scoreEntry, int64, error) {
			if err := s.scoreGate(ctx); err != nil {
				return scoreEntry{}, 0, err
			}
			sc, err := repro.ScoreContext(ctx, c.g, repro.WithMethod(m.Name))
			if err != nil {
				return scoreEntry{}, 0, err
			}
			return scoreEntry{table: sc}, scoresCost(sc, c.g), nil
		})
		return e.table, hit, err
	}
	extract := func(ctx context.Context, m *repro.Method) (repro.Selection, bool, error) {
		e, hit, err := s.scores.Do(ctx, scoreKey{g: c.key, method: m.Name, extract: true}, func() (scoreEntry, int64, error) {
			if err := s.scoreGate(ctx); err != nil {
				return scoreEntry{}, 0, err
			}
			sel, _, err := m.BackboneCtx(ctx, c.g, nil, -1, nil, nil)
			if err != nil {
				return scoreEntry{}, 0, err
			}
			return scoreEntry{backbone: sel}, graphCost(sel.G), nil
		})
		return e.backbone, hit, err
	}
	return score, extract
}

// tally counts what one request's sources were asked for: the reply is
// a cache hit when the pipeline read something and no read computed
// anything.
type tally struct{ reads, hits atomic.Int32 }

// sources hands a request's two sources to the pipeline as options,
// counting every read into t. Every endpoint's reads go through here.
func (t *tally) sources(score repro.ScoreSource, extract repro.ExtractSource) []repro.Option {
	count := func(hit bool) {
		t.reads.Add(1)
		if hit {
			t.hits.Add(1)
		}
	}
	return []repro.Option{
		repro.WithScoreSource(func(ctx context.Context, m *repro.Method) (*repro.Scores, bool, error) {
			sc, hit, err := score(ctx, m)
			count(hit)
			return sc, hit, err
		}),
		repro.WithExtractSource(func(ctx context.Context, m *repro.Method) (repro.Selection, bool, error) {
			sel, hit, err := extract(ctx, m)
			count(hit)
			return sel, hit, err
		}),
	}
}

func (t *tally) header() string {
	if n := t.reads.Load(); n > 0 && t.hits.Load() == n {
		return "hit"
	}
	return "miss"
}

// held reports whether the store a read draws on holds a method's
// entry: its extraction when extract is set, else its table.
type held func(m *repro.Method, extract bool) bool

// cachedLane is the one admission rule: the fast lane, under fastKey,
// when every entry the request's cuts read is held, else the cold lane
// under coldKey. Which entry a cut reads is Method.BackboneCtx's choice
// — the method's table when NeedsTable at the cut's rankedness, else
// its extraction — so this asks about the very entry the read's source
// will serve. A store holds only what it serves without a full
// computation, so fast work is pruning, at most a frontier rescore,
// and serialization.
func cachedLane(methods []*repro.Method, ranked func(*repro.Method) bool, has held, fastKey, coldKey string) (admission.Lane, string) {
	if len(methods) == 0 {
		return admission.Cold, coldKey
	}
	for _, m := range methods {
		if !has(m, !m.NeedsTable(ranked(m))) {
			return admission.Cold, coldKey
		}
	}
	return admission.Fast, fastKey
}

// cacheHeld is the score cache's held predicate for the request's body.
// Envelope bodies hold nothing: their method, pruning and directedness
// live in the undecoded JSON.
func (s *server) cacheHeld(c *call) held {
	return func(m *repro.Method, extract bool) bool {
		return c.key.mode != "envelope" && s.scores.Contains(scoreKey{g: c.key, method: m.Name, extract: extract})
	}
}

// classifyRun picks the admission lane and latency cost key for a
// /backbone or /score request, or a session read, before any slot is
// held: fast, under fastKey, when the store the read draws on (held)
// holds the cut's table or extraction, so such requests are never
// starved behind cold scoring work; cold under the method's name
// otherwise. A score reply reads the table, as a ranked (top/frac) cut
// does. (An mmap-served -graphdir body additionally skips parsing, but
// its first-touch scoring is still cold work.)
func classifyRun(scoreOnly bool, store func(*call) held, fastKey string) func(*call) (admission.Lane, string) {
	return func(c *call) (admission.Lane, string) {
		name := c.q.Get("method")
		if name == "" {
			name = "nc"
		}
		m, err := repro.LookupMethod(name)
		if err != nil {
			return admission.Cold, name
		}
		ranked := scoreOnly || c.q.Get("top") != "" || c.q.Get("frac") != ""
		return cachedLane([]*repro.Method{m}, func(*repro.Method) bool { return ranked }, store(c), fastKey, name)
	}
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
// every entry the size-matched comparison reads is cached, i.e. it runs
// without scoring or extracting anything. A fast comparison costs about
// three /backbone hits, so it keeps a cost key of its own.
func (s *server) classifyEvaluate(c *call) (admission.Lane, string) {
	var methods []*repro.Method
	names, ok := evalMethods(c.q)
	if !ok {
		methods = repro.Methods()
	}
	for _, name := range names {
		m, err := repro.LookupMethod(name)
		if err != nil {
			return admission.Cold, "evaluate"
		}
		methods = append(methods, m)
	}
	return cachedLane(methods, func(m *repro.Method) bool { return eval.Ranked(m, true) }, s.cacheHeld(c), "evaluate-cached", "evaluate")
}

// run is the one execute of /backbone, /score and both session reads:
// the pipeline scores or cuts the resolved graph reading the sources
// resolve handed over, and the reply is written straight off the input
// graph, never building the backbone as a graph. X-Backbone-Cache
// reports "hit" when the sources computed nothing, else "miss".
func (s *server) run(scoreOnly bool) func(*call) error {
	return func(c *call) error {
		req, err := parseRun(c)
		if err != nil {
			return err
		}
		opts := append(req.opts, c.sources...)
		var (
			scores *repro.Scores
			res    *repro.Result
			sel    repro.Selection
		)
		if scoreOnly {
			scores, err = repro.ScoreContext(c.ctx, c.g, opts...)
		} else if err = s.scoreGate(c.ctx); err == nil {
			res, sel, err = repro.SelectContext(c.ctx, c.g, opts...)
		}
		if err != nil {
			return err
		}
		c.w.Header().Set("X-Backbone-Cache", c.t.header())
		if c.headers != nil {
			c.headers(c, c.w.Header())
		}
		c.outcome = admission.OK
		if scoreOnly {
			return s.writeScores(c.w, req, scores)
		}
		return s.writeBackbone(c.w, req, res, sel)
	}
}

// evaluate executes POST /evaluate: one registry-wide, size-matched
// method comparison of the body's network as a JSON report. Every
// method's table, and every extraction a fixed-size method is graded
// from, resolves through the score cache's sources, so tables computed
// by earlier /backbone, /score or /evaluate calls on the same body are
// reused, a repeat comparison computes nothing (X-Backbone-Cache: hit),
// and concurrent identical evaluations coalesce per method.
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
	rep, err := repro.CompareContext(c.ctx, c.g, append(req.opts, c.sources...)...)
	if err != nil {
		return err
	}
	c.outcome = admission.OK
	s.evalCacheSkips.Add(uint64(rep.CacheHits))

	c.w.Header().Set("X-Backbone-Cache", c.t.header())
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
}

// scoreJSON is one /score row. Every row carries its score, a zero
// salience included.
type scoreJSON struct {
	edgeJSON
	Score scoreValue `json:"score"`
}

// scoreValue encodes a score as a JSON number, or as null when it is
// not finite (nc-binomial's underflowed p-values, nc's zero-variance
// rows) — the convention repro.Float uses, where encoding/json would
// fail the whole reply.
type scoreValue float64

func (v scoreValue) MarshalJSON() ([]byte, error) {
	if f := float64(v); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return json.Marshal(f)
	}
	return []byte("null"), nil
}

// selectionEdges flattens the edges a selection keeps into wire form.
func selectionEdges(sel repro.Selection) []edgeJSON {
	g := sel.G
	out := make([]edgeJSON, sel.Len())
	for i := range out {
		e := g.Edge(int(sel.ID(i)))
		out[i] = edgeJSON{Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)), Weight: e.Weight}
	}
	return out
}

// cutHeaders describe the cut a backbone or score reply writes.
var cutHeaders = []string{"X-Backbone-Method", "X-Backbone-Params", "X-Backbone-Edges", "X-Backbone-Duration-Ms"}

// writeBody sets the reply's content type and writes its body. csv and
// tsv refuse a label containing their separator before writing a byte,
// so that refusal is still a clean 400: the reply's cut headers are
// dropped and the error names the label. A later write error means the
// client went away mid-reply; it is only logged.
func (s *server) writeBody(w http.ResponseWriter, format string, write func(io.Writer) error) error {
	w.Header().Set("Content-Type", responseContentType(format))
	err := write(w)
	if errors.Is(err, repro.ErrUnsafeLabel) {
		for _, h := range cutHeaders {
			w.Header().Del(h)
		}
		return &httpError{http.StatusBadRequest, err}
	}
	if err != nil {
		s.logf("write response: %v", err)
	}
	return nil
}

// writeBackbone writes a backbone reply from the cut's selection: the
// edge count and coverage come from it, and every encoder reads the
// kept edges straight off the input graph.
func (s *server) writeBackbone(w http.ResponseWriter, req *runRequest, res *repro.Result, sel repro.Selection) error {
	params, _ := json.Marshal(res.Params)
	w.Header().Set("X-Backbone-Method", res.Method)
	w.Header().Set("X-Backbone-Params", string(params))
	w.Header().Set("X-Backbone-Edges", strconv.Itoa(sel.Len()))
	w.Header().Set("X-Backbone-Duration-Ms", strconv.FormatInt(res.Duration.Milliseconds(), 10))
	if req.asJSON {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"method":        res.Method,
			"title":         res.Title,
			"params":        res.Params,
			"input_nodes":   req.g.NumNodes(),
			"input_edges":   req.g.NumEdges(),
			"nodes":         sel.NumConnected(),
			"edges":         sel.Len(),
			"node_coverage": res.NodeCoverage,
			"edge_coverage": res.EdgeCoverage,
			"duration_ms":   res.Duration.Milliseconds(),
			"backbone":      selectionEdges(sel),
		})
		return nil
	}
	return s.writeBody(w, req.outFormat, func(w io.Writer) error {
		return repro.WriteSelection(w, sel, repro.WithFormat(req.outFormat))
	})
}

func (s *server) writeScores(w http.ResponseWriter, req *runRequest, scores *repro.Scores) error {
	g := scores.G
	edges := g.Edges()
	w.Header().Set("X-Backbone-Method", req.method.Name)
	w.Header().Set("X-Backbone-Edges", strconv.Itoa(len(edges)))
	row := func(i int, e repro.Edge) scoreJSON {
		return scoreJSON{
			edgeJSON: edgeJSON{Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)), Weight: e.Weight},
			Score:    scoreValue(scores.Score[i]),
		}
	}
	if req.asJSON {
		rows := make([]scoreJSON, 0, len(edges))
		for i, e := range edges {
			rows = append(rows, row(i, e))
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]any{"method": req.method.Name, "scores": rows}); err != nil {
			s.logf("write response: %v", err)
		}
		return nil
	}
	return s.writeBody(w, req.outFormat, func(w io.Writer) error {
		if req.outFormat == "ndjson" {
			bw := bufio.NewWriter(w)
			enc := json.NewEncoder(bw)
			for i, e := range edges {
				if err := enc.Encode(row(i, e)); err != nil {
					bw.Flush() // the rows before the failing one, as written so far
					return err
				}
			}
			return bw.Flush()
		}
		sep := byte(',')
		if req.outFormat == "tsv" {
			sep = '\t'
		}
		return graph.WriteEdgeRows(w, g.All(), sep, graph.Column{Name: "score", Append: func(buf []byte, id int32) []byte {
			return strconv.AppendFloat(buf, scores.Score[id], 'g', -1, 64)
		}})
	})
}
