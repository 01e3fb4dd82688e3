// Command backboned serves the backboning method registry over HTTP:
// network backboning as a service for clients that hold the edge lists.
//
// Usage:
//
//	backboned [-addr :8080] [-workers N] [-timeout 60s] [-max-body 256MiB]
//	          [-graph-cache-mb 256] [-score-cache-mb 128] [-graphdir dir]
//	          [-max-sessions 256] [-pprof addr]
//	          [-peers host:port,... -self host:port] [-peer-timeout 10s]
//	          [-chaos spec]
//
// Endpoints:
//
//	GET  /methods    registered methods and parameter schemas as JSON
//	GET  /formats    registered edge-list formats as JSON
//	GET  /healthz    liveness probe (200 until the process exits)
//	GET  /readyz     routability probe (503 once SIGTERM drain begins)
//	GET  /statsz     uptime, request, cache, evaluate, session and fleet counters as JSON
//	GET  /metricsz   the same counters in Prometheus text exposition format
//	POST /backbone   extract a backbone from the request body's edge list
//	POST /score      per-edge significance table for the body's edge list
//	POST /evaluate   grade every method on the body's edge list (JSON report)
//	POST /session    open an incremental session over the body's edge list
//	POST /session/{id}/update      batched edge upserts/deletes into a session
//	GET  /session/{id}/backbone    backbone of the session's current edge set
//	GET  /session/{id}/score       score table of the session's current edge set
//	DELETE /session/{id}           close a session
//
// The POST body is an edge list in any registered format (csv, tsv,
// ndjson; gzip accepted; format sniffed from content unless ?format=
// or the Content-Type says otherwise), or a JSON envelope carrying
// method, params and edges together. Method selection, parameters and
// pruning ride in the query string:
//
//	curl -s localhost:8080/methods | jq .
//	curl -s --data-binary @edges.csv 'localhost:8080/backbone?method=nc&delta=2.32'
//	curl -s --data-binary @edges.ndjson 'localhost:8080/backbone?method=df&top=500&outformat=ndjson'
//	curl -s --data-binary @edges.csv 'localhost:8080/score?method=nc&response=json' | jq .
//
// Scoring runs behind adaptive admission control: -workers is the hard
// concurrency cap, under which AIMD adapts the limit to observed
// scoring latency. Requests whose score tables are already cached take
// a fast priority lane; cold scoring queues in a cold lane with one
// slot reserved for fast work.
// Excess requests queue until a slot frees or their remaining budget
// cannot cover the method's observed p90 cost — then they are shed
// early with 503 and a Retry-After computed from queue depth. Requests
// may carry X-Backbone-Deadline (remaining budget in milliseconds); an
// already-spent budget is refused with 504 before any work runs. The
// per-request timeout (-timeout) still bounds everything, and request
// cancellation propagates into the scoring loops via the context-aware
// pipeline: a disconnected client stops in-flight work within one
// checkpoint range. SIGINT and SIGTERM drain in-flight requests before
// exiting.
//
// Request bodies are content-addressed: parsed graphs and per-method
// score tables are memoized in size-bounded LRU caches
// (-graph-cache-mb / -score-cache-mb, 0 disables), with concurrent
// identical requests de-duplicated in flight. A repeated body skips
// parsing; a repeated (body, method) pair skips scoring too, whatever
// its delta/alpha/top parameters — responses say which via the
// X-Backbone-Cache: hit|miss header, and GET /statsz exposes the
// counters. POST /evaluate rides the same caches per method: once a
// body's tables are cached (by earlier /backbone, /score or /evaluate
// calls), re-evaluating it returns the full multi-method report
// without scoring a single edge. -pprof starts net/http/pprof on a
// side listener for production profiling.
//
// -graphdir names a directory of pre-converted binary graphs
// (produced by `backbone -convert -graphdir dir edges.csv`): each file
// is <sha256-of-the-edge-list>.bbg, so when a request body's digest
// names one, the daemon memory-maps the graph instead of parsing the
// body — cold-start cost becomes independent of graph size, and
// graphs larger than the LRU budget (or than RAM) serve straight from
// the page cache. Mapped graphs live for the process; GET /statsz
// reports hit/miss/load counters under "mmap".
//
// Fleet mode (-peers with -self) shards the content-addressed caches
// across N daemons: each request body is routed to its owning peer by
// rendezvous hash of the body's sha256 digest, so every re-post of a
// network lands on the peer whose caches already hold it. Forwards
// carry per-attempt timeouts (-peer-timeout), capped-exponential-
// backoff retries with full jitter, and per-peer circuit breakers;
// when the owner cannot answer, the receiving peer computes the result
// itself and stamps X-Backbone-Degraded — peer loss costs cache
// locality, never correctness. Every peer runs the same flags with the
// same -peers list (order irrelevant) and its own -self.
//
// Sessions serve live incremental updates: POST /session parses a body
// once and pins a delta overlay over the parsed graph; POST
// /session/{id}/update applies batched edge upserts/deletes
// ({"updates":[{"src":"a","dst":"b","weight":2}]}, weight 0 deletes);
// GET /session/{id}/backbone|/score answer for the updated edge set by
// re-scoring only the rows the updates could have changed — the result
// is bit-identical to re-posting the whole modified edge list, at a
// small fraction of the cost. Sessions are LRU-bounded by
// -max-sessions. In fleet mode a session ID embeds the creating body's
// digest, pinning all session traffic to the body's rendezvous owner;
// an unreachable owner is a 503 (sessions never degrade to a peer that
// does not hold the delta).
//
// -chaos injects faults into the local serving path for resilience
// testing: "error=0.2,latency=50ms,latency-rate=0.5,partial=0.1"
// injects errors, latency and truncated responses at those rates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilient"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "maximum concurrent scoring requests (admission hard cap)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		maxBody    = flag.Int64("max-body", 256<<20, "maximum request body size in bytes")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		graphCache = flag.Int64("graph-cache-mb", 256, "parsed-graph cache budget in MiB (0 disables)")
		scoreCache = flag.Int64("score-cache-mb", 128, "score-table cache budget in MiB (0 disables)")
		graphDir   = flag.String("graphdir", "", "directory of <sha256>.bbg files to mmap instead of parsing matching request bodies")
		maxSess    = flag.Int("max-sessions", defaultMaxSessions, "maximum resident incremental sessions (LRU-evicted past this)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this side address (empty disables)")
		peersFlag  = flag.String("peers", "", "comma-separated fleet membership (host:port,...); empty = single-node")
		selfAddr   = flag.String("self", "", "this daemon's advertised address within -peers")
		peerTO     = flag.Duration("peer-timeout", 10*time.Second, "per-attempt timeout for peer forwards")
		chaosSpec  = flag.String("chaos", "", `fault injection spec, e.g. "error=0.2,latency=50ms,partial=0.1" (dev/testing)`)
	)
	flag.Parse()

	logger := log.New(os.Stderr, "backboned: ", log.LstdFlags)

	var fl *fleet.Fleet
	if *peersFlag != "" || *selfAddr != "" {
		var err error
		fl, err = fleet.New(fleet.Config{
			Self:           *selfAddr,
			Peers:          strings.Split(*peersFlag, ","),
			AttemptTimeout: *peerTO,
		})
		if err != nil {
			logger.Fatalf("fleet: %v (need -self and a -peers list)", err)
		}
		logger.Printf("fleet mode: self=%s members=%v", fl.Self(), fl.Members())
	}
	fault, err := resilient.ParseFaultSpec(*chaosSpec)
	if err != nil {
		logger.Fatalf("-chaos: %v", err)
	}
	if fault != nil {
		logger.Printf("CHAOS MODE: injecting faults (%s) — not for production", *chaosSpec)
	}

	s := newServer(serverConfig{
		workers:         *workers,
		timeout:         *timeout,
		maxBody:         *maxBody,
		graphCacheBytes: *graphCache << 20,
		scoreCacheBytes: *scoreCache << 20,
		graphDir:        *graphDir,
		maxSessions:     *maxSess,
		fleet:           fl,
		fault:           fault,
		logf:            logger.Printf,
	})
	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			// nil handler = DefaultServeMux, where net/http/pprof
			// registered; the main server's mux never exposes it.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%d workers, %v timeout)", *addr, *workers, *timeout)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Fatalf("listen: %v", err)
	case <-ctx.Done():
		stop()
		// Flip /readyz to 503 first so load balancers and fleet peers
		// stop routing here while in-flight requests drain.
		s.beginDrain()
		logger.Printf("shutting down, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "backboned: bye")
	}
}
