package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilient"
)

// The exposition contract: /statsz and /metricsz are read by other
// programs (the benchmark decodes /statsz into typed structs, CI's jq
// gates read admission.deadline_violations, scrapers read /metricsz),
// so their shape is pinned here in full. Every conditional block is
// switched on: -graphdir (mmap), fleet mode (fleet) and -chaos
// (fault_injection). Values are not pinned; names, nesting, metric
// kinds, help texts and label keys are.

// wantStatszKeys is the /statsz key tree of a fresh server: one line
// per leaf, objects joined with ".", array elements as "[]".
var wantStatszKeys = []string{
	"admission.adaptive",
	"admission.cold.admitted",
	"admission.cold.in_flight",
	"admission.cold.queue_timeouts",
	"admission.cold.queued",
	"admission.cold.sheds",
	"admission.deadline_rejects",
	"admission.deadline_violations",
	"admission.expired",
	"admission.expired_arrivals",
	"admission.expired_before_scoring",
	"admission.fast.admitted",
	"admission.fast.in_flight",
	"admission.fast.queue_timeouts",
	"admission.fast.queued",
	"admission.fast.sheds",
	"admission.fast_reserve",
	"admission.limit",
	"admission.limit_decreases",
	"admission.max_concurrent",
	"draining",
	"evaluate.cache_skips",
	"evaluate.requests",
	"fault_injection.errors",
	"fault_injection.latencies",
	"fault_injection.partials",
	"fleet.peers[].addr",
	"fleet.peers[].breaker.consecutive_failures",
	"fleet.peers[].breaker.opens",
	"fleet.peers[].breaker.state",
	"fleet.peers[].failures",
	"fleet.peers[].fallbacks",
	"fleet.peers[].forwards",
	"fleet.peers[].retries",
	"fleet.peers[].self",
	"fleet.peers[].transit_ms",
	"fleet.self",
	"graph_cache.bytes",
	"graph_cache.coalesced",
	"graph_cache.entries",
	"graph_cache.evictions",
	"graph_cache.hits",
	"graph_cache.max_bytes",
	"graph_cache.misses",
	"mmap.errors",
	"mmap.graphs",
	"mmap.hits",
	"mmap.mapped_bytes",
	"mmap.misses",
	"mmap.sections",
	"requests",
	"score_cache.bytes",
	"score_cache.coalesced",
	"score_cache.entries",
	"score_cache.evictions",
	"score_cache.hits",
	"score_cache.max_bytes",
	"score_cache.misses",
	"sessions.active",
	"sessions.creates",
	"sessions.deletes",
	"sessions.delta_invalidations",
	"sessions.evictions",
	"sessions.full_rescores",
	"sessions.owner_unavailable",
	"sessions.reads",
	"sessions.rescored_rows",
	"sessions.updates",
	"uptime_seconds",
}

// wantMetricFamilies is the /metricsz family set: "name kind {label
// keys} help", sorted by name.
var wantMetricFamilies = []string{
	"backboned_admission_admitted_total counter {lane} Requests admitted into the worker pool, by lane.",
	"backboned_admission_deadline_rejects_total counter {} Requests refused because their budget could not cover the work ahead.",
	"backboned_admission_in_flight gauge {lane} Admitted requests currently executing, by lane.",
	"backboned_admission_limit gauge {} Current adaptive concurrency limit.",
	"backboned_admission_queued gauge {lane} Requests waiting for a slot, by lane.",
	"backboned_admission_sheds_total counter {lane} Requests shed with 503, by lane.",
	"backboned_cache_bytes gauge {cache} Summed cost of resident cache entries by cache.",
	"backboned_cache_entries gauge {cache} Current cache entries by cache.",
	"backboned_cache_evictions_total counter {cache} Cache entries evicted to honor the byte budget.",
	"backboned_cache_hits_total counter {cache} Content-addressed cache hits by cache.",
	"backboned_cache_misses_total counter {cache} Content-addressed cache misses by cache.",
	"backboned_deadline_violations_total counter {} Scoring runs that would have started past their deadline (must stay 0).",
	"backboned_draining gauge {} 1 once graceful shutdown has begun (readyz is 503).",
	"backboned_evaluate_cache_skips_total counter {} Method scorings /evaluate skipped via the score cache.",
	"backboned_evaluate_requests_total counter {} POST /evaluate calls.",
	"backboned_expired_arrivals_total counter {} Requests whose propagated deadline was already spent on arrival.",
	"backboned_expired_before_scoring_total counter {} Scoring runs refused at the last gate because the deadline had passed.",
	"backboned_fleet_failures_total counter {peer} Forward attempts that failed terminally, by peer address.",
	"backboned_fleet_fallbacks_total counter {peer} Stateless requests degraded to local execution, by peer address.",
	"backboned_fleet_forwards_total counter {peer} Requests forwarded to a peer, by peer address.",
	"backboned_mmap_bytes gauge {} Bytes currently memory-mapped from -graphdir.",
	"backboned_mmap_errors_total counter {} Unreadable or corrupt -graphdir files.",
	"backboned_mmap_graphs gauge {} Graphs currently memory-mapped.",
	"backboned_mmap_hits_total counter {} Requests served a memory-mapped -graphdir graph.",
	"backboned_mmap_misses_total counter {} Request digests with no usable -graphdir file.",
	"backboned_requests_total counter {} Requests accepted by the scoring and session endpoints.",
	"backboned_session_creates_total counter {} Sessions opened (POST /session).",
	"backboned_session_deletes_total counter {} Sessions closed with DELETE.",
	"backboned_session_delta_invalidations_total counter {} Per-session score tables dirtied by update batches.",
	"backboned_session_evictions_total counter {} Sessions evicted past -max-sessions.",
	"backboned_session_full_rescores_total counter {} Session reads that re-scored their whole table.",
	"backboned_session_owner_unavailable_total counter {} Session requests answered 503 because the owning peer was unreachable.",
	"backboned_session_reads_total counter {} Session backbone/score reads.",
	"backboned_session_rescored_rows_total counter {} Score-table rows re-scored by incremental session reads.",
	"backboned_session_updates_total counter {} Update batches applied to sessions.",
	"backboned_sessions_active gauge {} Resident incremental sessions.",
	"backboned_uptime_seconds gauge {} Seconds since the process started.",
}

// newExpositionServer starts a server with every conditional
// exposition block enabled. The second fleet member never receives
// traffic; it only makes the per-peer families carry a sample.
func newExpositionServer(t *testing.T) *httptest.Server {
	t.Helper()
	fl, err := fleet.New(fleet.Config{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serverConfig{
		workers: 2, timeout: 5 * time.Second, maxBody: 1 << 20,
		graphCacheBytes: 1 << 20, scoreCacheBytes: 1 << 20,
		graphDir: t.TempDir(),
		fleet:    fl,
		fault:    &resilient.Fault{},
		logf:     t.Logf,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return resp, raw
}

// jsonKeyTree lists the leaf paths of a decoded JSON value.
func jsonKeyTree(v any, prefix string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		if len(v) == 0 {
			out[prefix+"{}"] = true
		}
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			jsonKeyTree(child, p, out)
		}
	case []any:
		if len(v) == 0 {
			out[prefix+"[]"] = true
		}
		for _, child := range v {
			jsonKeyTree(child, prefix+"[]", out)
		}
	default:
		out[prefix] = true
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// diffLists reports what want has that got lacks and vice versa.
func diffLists(t *testing.T, what string, got, want []string) {
	t.Helper()
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("%s: missing %q", what, w)
		}
	}
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("%s: unexpected %q", what, g)
		}
	}
}

func TestStatszKeyTreePinned(t *testing.T) {
	ts := newExpositionServer(t)
	_, raw := getBody(t, ts.URL+"/statsz")
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	jsonKeyTree(tree, "", got)
	diffLists(t, "/statsz key tree", sortedKeys(got), wantStatszKeys)
}

// promSample splits one exposition sample line into its family name
// and label block.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? \S+$`)

func TestMetricszFamiliesPinned(t *testing.T) {
	ts := newExpositionServer(t)
	resp, raw := getBody(t, ts.URL+"/metricsz")
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Errorf("content type %q, want %q", ct, metricsContentType)
	}
	type family struct {
		kind, help string
		labels     map[string]bool
	}
	fams := map[string]*family{}
	fam := func(name string) *family {
		if fams[name] == nil {
			fams[name] = &family{labels: map[string]bool{}}
		}
		return fams[name]
	}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			fam(name).help = help
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			fam(name).kind = kind
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample %q", line)
			}
			f := fams[m[1]]
			if f == nil || f.kind == "" {
				t.Fatalf("sample %q precedes its TYPE header", line)
			}
			if m[2] != "" {
				for _, pair := range strings.Split(m[2], ",") {
					k, _, _ := strings.Cut(pair, "=")
					f.labels[k] = true
				}
			}
		}
	}
	var got []string
	for name, f := range fams {
		got = append(got, name+" "+f.kind+" {"+strings.Join(sortedKeys(f.labels), ",")+"} "+f.help)
	}
	slices.Sort(got)
	diffLists(t, "/metricsz families", got, wantMetricFamilies)
}
