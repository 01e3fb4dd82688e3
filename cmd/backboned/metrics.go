package main

// GET /statsz (JSON) and GET /metricsz (Prometheus text exposition,
// version 0.0.4) render one table, metricTable: each exposed value is
// declared once — its /statsz path, its /metricsz family, kind, help
// and label, and its source — so the two endpoints cannot disagree.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/fleet"
)

// metricsContentType is the Prometheus text exposition media type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

const (
	counter = "counter"
	gauge   = "gauge"
)

// metric is one row of the exposition table. A row without a family
// name is /statsz only: a whole snapshot struct, whose JSON tags name
// its fields, or a non-numeric value. A row without a stat path is
// /metricsz only: a family over such a snapshot, whose value is a
// []sample labelled by cache, lane or peer (byCache, byLane, byPeer).
type metric struct {
	stat             string // dotted /statsz path
	name, kind, help string // /metricsz family
	value            func(*snapshot) any
}

// sample is one labelled value of a /metricsz family.
type sample struct {
	label, value string
	v            float64
}

// snapshot is one render's read of the sources that snapshot a whole
// struct at once, so every row of one response reads the same moment.
type snapshot struct {
	graphs, scores cache.Stats
	adm            admission.Stats
	peers          []fleet.PeerStats
}

// wholeSeconds is the uptime: fractional on /metricsz, whole seconds
// on /statsz.
type wholeSeconds float64

func (v wholeSeconds) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, int64(v), 10), nil }

// load reads one of the server's atomics at render time.
func load[V any](a interface{ Load() V }) func(*snapshot) any {
	return func(*snapshot) any { return a.Load() }
}

func byCache(f func(cache.Stats) uint64) func(*snapshot) any {
	return func(st *snapshot) any {
		return []sample{{"cache", "graph", float64(f(st.graphs))}, {"cache", "score", float64(f(st.scores))}}
	}
}

func byLane(f func(admission.LaneStats) uint64) func(*snapshot) any {
	return func(st *snapshot) any {
		return []sample{{"lane", "fast", float64(f(st.adm.Fast))}, {"lane", "cold", float64(f(st.adm.Cold))}}
	}
}

func byPeer(f func(fleet.PeerStats) uint64) func(*snapshot) any {
	return func(st *snapshot) any {
		var out []sample
		for _, ps := range st.peers {
			if !ps.Self {
				out = append(out, sample{"peer", ps.Addr, float64(f(ps))})
			}
		}
		return out
	}
}

// metricTable declares everything /statsz and /metricsz expose, in
// /metricsz order. Sections for -graphdir, fleet mode and -chaos exist
// only when those are configured.
func (s *server) metricTable() []metric {
	t := []metric{
		{"uptime_seconds", "backboned_uptime_seconds", gauge, "Seconds since the process started.",
			func(*snapshot) any { return wholeSeconds(time.Since(s.start).Seconds()) }},
		{"requests", "backboned_requests_total", counter, "Requests accepted by the scoring and session endpoints.", load(&s.requests)},
		{"draining", "backboned_draining", gauge, "1 once graceful shutdown has begun (readyz is 503).", load(&s.draining)},

		{"graph_cache", "", "", "", func(st *snapshot) any { return st.graphs }},
		{"score_cache", "", "", "", func(st *snapshot) any { return st.scores }},
		{"", "backboned_cache_hits_total", counter, "Content-addressed cache hits by cache.", byCache(func(c cache.Stats) uint64 { return c.Hits })},
		{"", "backboned_cache_misses_total", counter, "Content-addressed cache misses by cache.", byCache(func(c cache.Stats) uint64 { return c.Misses })},
		{"", "backboned_cache_evictions_total", counter, "Cache entries evicted to honor the byte budget.", byCache(func(c cache.Stats) uint64 { return c.Evictions })},
		{"", "backboned_cache_entries", gauge, "Current cache entries by cache.", byCache(func(c cache.Stats) uint64 { return uint64(c.Entries) })},
		{"", "backboned_cache_bytes", gauge, "Summed cost of resident cache entries by cache.", byCache(func(c cache.Stats) uint64 { return uint64(c.Bytes) })},

		// The admission snapshot must precede the rows that add keys to
		// its /statsz object.
		{"admission", "", "", "", func(st *snapshot) any { return st.adm }},
		{"", "backboned_admission_limit", gauge, "Current adaptive concurrency limit.", func(st *snapshot) any { return st.adm.Limit }},
		{"", "backboned_admission_in_flight", gauge, "Admitted requests currently executing, by lane.", byLane(func(l admission.LaneStats) uint64 { return uint64(l.InFlight) })},
		{"", "backboned_admission_queued", gauge, "Requests waiting for a slot, by lane.", byLane(func(l admission.LaneStats) uint64 { return uint64(l.Queued) })},
		{"", "backboned_admission_admitted_total", counter, "Requests admitted into the worker pool, by lane.", byLane(func(l admission.LaneStats) uint64 { return l.Admitted })},
		{"", "backboned_admission_sheds_total", counter, "Requests shed with 503, by lane.", byLane(func(l admission.LaneStats) uint64 { return l.Sheds })},
		{"", "backboned_admission_deadline_rejects_total", counter, "Requests refused because their budget could not cover the work ahead.",
			func(st *snapshot) any { return st.adm.DeadlineRejects }},
		{"admission.expired_arrivals", "backboned_expired_arrivals_total", counter, "Requests whose propagated deadline was already spent on arrival.", load(&s.expiredArrivals)},
		{"admission.expired_before_scoring", "backboned_expired_before_scoring_total", counter, "Scoring runs refused at the last gate because the deadline had passed.", load(&s.expiredBeforeScoring)},
		{"admission.deadline_violations", "backboned_deadline_violations_total", counter, "Scoring runs that would have started past their deadline (must stay 0).", load(&s.deadlineViolations)},

		{"evaluate.requests", "backboned_evaluate_requests_total", counter, "POST /evaluate calls.", load(&s.evalRequests)},
		{"evaluate.cache_skips", "backboned_evaluate_cache_skips_total", counter, "Method scorings /evaluate skipped via the score cache.", load(&s.evalCacheSkips)},

		{"sessions.active", "backboned_sessions_active", gauge, "Resident incremental sessions.", func(*snapshot) any { return s.sessionCount() }},
		{"sessions.creates", "backboned_session_creates_total", counter, "Sessions opened (POST /session).", load(&s.sessionCreates)},
		{"sessions.updates", "backboned_session_updates_total", counter, "Update batches applied to sessions.", load(&s.sessionUpdates)},
		{"sessions.reads", "backboned_session_reads_total", counter, "Session backbone/score reads.", load(&s.sessionReads)},
		{"sessions.deletes", "backboned_session_deletes_total", counter, "Sessions closed with DELETE.", load(&s.sessionDeletes)},
		{"sessions.evictions", "backboned_session_evictions_total", counter, "Sessions evicted past -max-sessions.", load(&s.sessionEvictions)},
		{"sessions.delta_invalidations", "backboned_session_delta_invalidations_total", counter, "Per-session score tables dirtied by update batches.", load(&s.sessionInvalidations)},
		{"sessions.rescored_rows", "backboned_session_rescored_rows_total", counter, "Score-table rows re-scored by incremental session reads.", load(&s.sessionRescoredRows)},
		{"sessions.full_rescores", "backboned_session_full_rescores_total", counter, "Session reads that re-scored their whole table.", load(&s.sessionFullRescores)},
		{"sessions.owner_unavailable", "backboned_session_owner_unavailable_total", counter, "Session requests answered 503 because the owning peer was unreachable.", load(&s.sessionOwnerMiss)},
	}
	if s.graphDir != "" {
		t = append(t,
			metric{"mmap.hits", "backboned_mmap_hits_total", counter, "Requests served a memory-mapped -graphdir graph.", load(&s.mmapHits)},
			metric{"mmap.misses", "backboned_mmap_misses_total", counter, "Request digests with no usable -graphdir file.", load(&s.mmapMisses)},
			metric{"mmap.errors", "backboned_mmap_errors_total", counter, "Unreadable or corrupt -graphdir files.", load(&s.mmapErrors)},
			metric{"mmap.graphs", "backboned_mmap_graphs", gauge, "Graphs currently memory-mapped.", load(&s.mmapLoads)},
			metric{"mmap.mapped_bytes", "backboned_mmap_bytes", gauge, "Bytes currently memory-mapped from -graphdir.", load(&s.mmapBytes)},
			metric{"mmap.sections", "", "", "", load(&s.mmapSections)},
		)
	}
	if s.fleet != nil {
		t = append(t,
			metric{"fleet.self", "", "", "", func(*snapshot) any { return s.fleet.Self() }},
			metric{"fleet.peers", "", "", "", func(st *snapshot) any { return st.peers }},
			metric{"", "backboned_fleet_forwards_total", counter, "Requests forwarded to a peer, by peer address.", byPeer(func(p fleet.PeerStats) uint64 { return p.Forwards })},
			metric{"", "backboned_fleet_failures_total", counter, "Forward attempts that failed terminally, by peer address.", byPeer(func(p fleet.PeerStats) uint64 { return p.Failures })},
			metric{"", "backboned_fleet_fallbacks_total", counter, "Stateless requests degraded to local execution, by peer address.", byPeer(func(p fleet.PeerStats) uint64 { return p.Fallbacks })},
		)
	}
	if s.fault != nil {
		t = append(t, metric{"fault_injection", "", "", "", func(*snapshot) any { return s.fault.Stats() }})
	}
	return t
}

func (s *server) snapshot() *snapshot {
	st := &snapshot{graphs: s.graphs.Stats(), scores: s.scores.Stats(), adm: s.limiter.Stats()}
	if s.fleet != nil {
		st.peers = s.fleet.Stats()
	}
	return st
}

// handleStatsz renders the table as nested JSON objects.
func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.snapshot()
	out := map[string]any{}
	for _, m := range s.metrics {
		if m.stat == "" {
			continue
		}
		obj, path := out, strings.Split(m.stat, ".")
		for _, k := range path[:len(path)-1] {
			child, ok := obj[k].(map[string]any)
			if !ok {
				child = jsonMembers(obj[k])
				obj[k] = child
			}
			obj = child
		}
		obj[path[len(path)-1]] = m.value(st)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// jsonMembers reopens a snapshot struct as its JSON object members so
// table rows can add keys beside them.
func jsonMembers(v any) map[string]any {
	out := map[string]any{}
	if v == nil {
		return out
	}
	raw, _ := json.Marshal(v)
	var members map[string]json.RawMessage
	json.Unmarshal(raw, &members) //nolint:errcheck // raw is a marshalled struct or null
	for k, m := range members {
		out[k] = m
	}
	return out
}

// handleMetricsz renders the table's families as a Prometheus scrape.
func (s *server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := s.snapshot()
	w.Header().Set("Content-Type", metricsContentType)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, m := range s.metrics {
		if m.name == "" {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		switch v := m.value(st).(type) {
		case []sample:
			for _, x := range v {
				// %q covers quote and backslash; only newlines need
				// rewriting for the exposition format's label escapes.
				fmt.Fprintf(bw, "%s{%s=%q} %g\n", m.name, x.label, strings.ReplaceAll(x.value, "\n", `\n`), x.v)
			}
		default:
			fmt.Fprintf(bw, "%s %g\n", m.name, promValue(v))
		}
	}
}

// promValue is a scalar row value as a sample value.
func promValue(v any) float64 {
	switch v := v.(type) {
	case wholeSeconds:
		return float64(v)
	case float64:
		return v
	case uint64:
		return float64(v)
	case int64:
		return float64(v)
	case int:
		return float64(v)
	case bool:
		if v {
			return 1
		}
	}
	return 0
}
