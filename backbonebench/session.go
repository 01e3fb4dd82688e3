package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/filter"
	"repro/internal/graph"
)

// session-live's op kinds. One arrival in four is a single-edge update,
// the rest are df backbone reads.
const sessionUpdate, sessionRead = 0, 1

func runSessionLive(ctx context.Context, r *run) error {
	c := denseCorpus(r.cfg.seed, r.scale)
	base, err := repro.ReadGraph(bytes.NewReader(c.body), repro.WithFormat("csv"))
	if err != nil {
		return err
	}
	res, err := repro.BackboneContext(ctx, base, repro.WithMethod("df"))
	if err != nil {
		return err
	}
	r.check(checkKept(r.cfg.scale, "dense", "df", res.EdgeCoverage))
	r.layers["filter.kept_frac.df"] = res.EdgeCoverage
	var first bytes.Buffer
	if err := repro.WriteGraph(&first, res.Backbone); err != nil {
		return err
	}
	firstRead := sha256.Sum256(first.Bytes())

	plan := func(d time.Duration) []arrival {
		rng := rand.New(rand.NewSource(r.cfg.seed*1000 + 5))
		mix := &dealer{deck: []int{sessionUpdate, sessionRead, sessionRead, sessionRead}}
		updates := 0
		return pacedPlan(rng, sessionRate, d, func(rng *rand.Rand) (int, int) {
			if mix.next(rng) == sessionRead {
				return sessionRead, 0
			}
			updates++
			return sessionUpdate, updates - 1
		})
	}
	fullPlan := plan(r.cfg.duration())
	n := 0
	for _, a := range fullPlan {
		if a.kind == sessionUpdate {
			n++
		}
	}
	var updates [][]byte
	for _, u := range sessionUpdates(r.cfg.seed, c, n) {
		updates = append(updates, []byte(u.json()))
	}
	body := c.body

	var id string // the session the load runs against
	readURL := func(d *daemon) string { return d.url + "/session/" + id + "/backbone?method=df" }

	// Each arrival's outcome, by plan position: an update's position in
	// the daemon's apply order (its updates_total), a read's reply digest.
	applied := make([]int, len(fullPlan))
	readDigest := make([][sha256.Size]byte, len(fullPlan))
	var replay *sessionModel
	return runServing(ctx, r, &serving{
		kinds: []string{"update", "read"}, // sessionUpdate, sessionRead
		slo:   100 * time.Millisecond,
		plan:  plan,
		setUp: func(ctx context.Context, d *daemon, l *loader) error {
			got, err := call(ctx, l, http.MethodPost, d.url+"/session", "text/csv", body)
			if err != nil {
				return err
			}
			var created struct {
				Session string `json:"session"`
			}
			if err := json.Unmarshal(got, &created); err != nil {
				return fmt.Errorf("POST /session reply: %w", err)
			}
			id = created.Session
			if got, err = call(ctx, l, http.MethodGet, readURL(d), "", nil); err != nil {
				return err
			}
			if sha256.Sum256(got) != firstRead {
				return fmt.Errorf("first session read differs from the in-process df backbone")
			}
			return nil
		},
		do: func(ctx context.Context, d *daemon, s *sample, l *loader) {
			if s.kind == sessionRead {
				l.send(ctx, s, http.MethodGet, readURL(d), "", nil, 0)
				readDigest[s.seq] = sha256.Sum256(l.buf.Bytes())
				return
			}
			u := updates[s.arg]
			l.send(ctx, s, http.MethodPost, d.url+"/session/"+id+"/update", "application/json", bytes.NewReader(u), int64(len(u)))
			if s.ok() {
				var reply struct {
					Total int `json:"updates_total"`
				}
				s.wrong = json.Unmarshal(l.buf.Bytes(), &reply) != nil || reply.Total < 1
				applied[s.seq] = reply.Total
			}
		},
		finish: func(ctx context.Context, d *daemon, l *loader, samples []sample) error {
			if err := checkSessionReads(ctx, base, updates, samples, applied, readDigest); err != nil {
				return err
			}
			scores, err := call(ctx, l, http.MethodGet, d.url+"/session/"+id+"/score?method=df", "", nil)
			if err != nil {
				return err
			}
			want, err := coldBackbone(ctx, base, scores, "df")
			if err != nil {
				return err
			}
			got, err := call(ctx, l, http.MethodGet, readURL(d), "", nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("the session's df backbone differs from a cold rebuild of its edge set")
			}
			return nil
		},
		prepare: func(ctx context.Context) (err error) {
			replay, err = newSessionModel(ctx, base)
			return err
		},
		replay: func(ctx context.Context, a arrival, tr *tracer) error {
			if a.kind == sessionUpdate {
				return replay.update(updates[a.arg], tr)
			}
			_, err := replay.read(ctx, tr)
			return err
		},
	})
}

// checkSessionReads marks wrong every session read that is not the df
// backbone of the state it must have seen: the base graph with the
// first k updates applied, in the order the daemon applied them. A read
// holds the session lock, so it sees exactly such a state, with k at
// least the number of updates answered before the read was sent and at
// most the number sent before it was answered.
func checkSessionReads(ctx context.Context, base *repro.Graph, updates [][]byte, samples []sample, applied []int, readDigest [][sha256.Size]byte) error {
	var order []int // update arg by apply position
	var ups []*sample
	for i := range samples {
		if s := &samples[i]; s.ok() && s.kind == sessionUpdate {
			for len(order) < applied[s.seq] {
				order = append(order, -1)
			}
			order[applied[s.seq]-1] = s.arg
			ups = append(ups, s)
		}
	}
	m, err := newSessionModel(ctx, base)
	if err != nil {
		return err
	}
	var states [][sha256.Size]byte // states[k]: the reply after k updates
	for k := 0; ; k++ {
		out, err := m.read(ctx, nil)
		if err != nil {
			return err
		}
		states = append(states, sha256.Sum256(out))
		if k == len(order) {
			break
		}
		if order[k] < 0 {
			return fmt.Errorf("the daemon applied update %d of %d but its reply was lost", k+1, len(order))
		}
		if err := m.update(updates[order[k]], nil); err != nil {
			return err
		}
	}
	for i := range samples {
		s := &samples[i]
		if !s.ok() || s.kind != sessionRead {
			continue
		}
		lo, hi := 0, 0
		for _, u := range ups {
			if u.done <= s.dequeued {
				lo++
			}
			if u.dequeued < s.done {
				hi++
			}
		}
		s.wrong = !slices.Contains(states[lo:min(hi, len(states)-1)+1], readDigest[s.seq])
	}
	return nil
}

// sessionModel is the daemon's session kept in process: an exclusive
// delta over the base graph and its df table, advanced by the calls the
// update and read handlers make.
type sessionModel struct {
	delta *graph.Delta
	df    *filter.Method
	table *repro.Scores
	cur   *repro.Graph
	out   bytes.Buffer
}

func newSessionModel(ctx context.Context, base *repro.Graph) (*sessionModel, error) {
	df, err := filter.Lookup("df")
	if err != nil {
		return nil, err
	}
	m := &sessionModel{delta: graph.NewDelta(base, 0), df: df, cur: base}
	m.delta.SetExclusive(true)
	m.table, err = repro.ScoreContext(ctx, base, repro.WithMethod("df"))
	return m, err
}

// read is the read handler's call sequence: materialize the delta,
// re-score the rows it dirtied, prune, write csv. The reply stays valid
// until the next read.
func (m *sessionModel) read(ctx context.Context, tr *tracer) ([]byte, error) {
	s := tr.begin("graph.delta_materialize_ms")
	g, dirty := m.delta.Graph()
	tr.end(s)
	if g != m.cur {
		s = tr.begin("filter.rescore_ms")
		table, _, err := filter.RescoreDirty(ctx, m.df, m.table, dirty, filter.ScoreOpts{})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		m.table, m.cur = table, g
	}
	m.out.Reset()
	err := extractAndWrite(ctx, g, "df", m.table, &m.out, tr)
	return m.out.Bytes(), err
}

// update is the update handler's call sequence: digest the body,
// decode it, resolve labels, apply the batch to the delta.
func (m *sessionModel) update(body []byte, tr *tracer) error {
	delta := m.delta
	s := tr.begin("backboned.intake_digest_ms")
	digestSink = sha256.Sum256(body)
	tr.end(s)
	s = tr.begin("backboned.update_decode_ms")
	var ub struct {
		Updates []struct {
			Src    string   `json:"src"`
			Dst    string   `json:"dst"`
			Weight *float64 `json:"weight"`
		} `json:"updates"`
	}
	err := json.Unmarshal(body, &ub)
	ups := make([]graph.Update, 0, len(ub.Updates))
	for _, e := range ub.Updates {
		var w float64
		if e.Weight != nil {
			w = *e.Weight
		}
		ups = append(ups, graph.Update{Src: int32(delta.Base().NodeID(e.Src)), Dst: int32(delta.Base().NodeID(e.Dst)), Weight: w})
	}
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("graph.delta_apply_ms")
	err = delta.Apply(ups)
	tr.end(s)
	return err
}

// coldBackbone rebuilds the edge set a session /score reply lists (csv
// rows src,dst,weight,score) from scratch on base's node set and
// returns its method backbone as csv: what a re-post of the session's
// current edge list would answer.
func coldBackbone(ctx context.Context, base *repro.Graph, scoreCSV []byte, method string) ([]byte, error) {
	b := repro.NewBuilder(base.Directed())
	for _, label := range base.Labels() {
		b.AddNode(label)
	}
	rest := scoreCSV
	for row := 0; len(rest) > 0; row++ {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if row == 0 || len(line) == 0 {
			continue // header
		}
		f := strings.SplitN(string(line), ",", 4)
		if len(f) < 3 {
			return nil, fmt.Errorf("score row %d: %q", row, line)
		}
		w, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("score row %d: %w", row, err)
		}
		if err := b.AddEdgeLabels(f[0], f[1], w); err != nil {
			return nil, fmt.Errorf("score row %d: %w", row, err)
		}
	}
	res, err := repro.BackboneContext(ctx, b.Build(), repro.WithMethod(method))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = repro.WriteGraph(&out, res.Backbone)
	return out.Bytes(), err
}
