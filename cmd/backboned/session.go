package main

// Live incremental serving: a session anchors one posted edge list and
// accepts batched edge updates against it. Reads re-score only the
// rows the update stream could have changed (filter.RescoreDirty over
// the session's graph.Delta overlay) instead of re-parsing, rebuilding
// and re-scoring the whole body — while staying bit-identical to what
// POST /backbone would answer for the updated edge list.
//
// Sessions ride the same front door as the stateless endpoints
// (deadline intake, admission lanes, chaos injection) and the same
// fleet policy anchor: the session ID embeds the sha256 of the
// creating body, so every peer routes session traffic to the body's
// rendezvous owner. Unlike stateless scoring, session state cannot be
// recomputed by a non-owner, so owner failure is answered 503 (retry
// when the owner returns) — never a silent degrade to a peer that does
// not hold the delta.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/filter"
	"repro/internal/graph"
)

// defaultMaxSessions bounds resident session state when -max-sessions
// is unset; the oldest idle session is evicted past it.
const defaultMaxSessions = 256

// sessionTable is one method's score table inside a session, plus the
// nodes dirtied since it was computed. pending is what RescoreDirty
// needs to bring the table forward; it accumulates across
// materializations until the next read of this method drains it.
type sessionTable struct {
	scores  *repro.Scores
	pending []int32 // sorted unique dirty nodes since scores.G
}

// session is one live overlay: the delta accumulating updates, the
// latest materialization, and per-method score tables that advance
// incrementally. mu serializes all delta/table access (graph.Delta is
// not concurrency-safe); lastUsed is guarded by server.sessMu, not mu,
// so eviction scans never wait on a session mid-score.
type session struct {
	id  string
	sum [sha256.Size]byte // creating body's digest: the fleet routing anchor

	mu    sync.Mutex
	delta *graph.Delta
	g     *repro.Graph // latest materialization (== delta's last Graph())
	// lastDirty is the dirty record of the latest materialization: a
	// table exactly one generation behind rides its row diff (and, with
	// an exclusive delta, its in-place surrender).
	lastDirty graph.Dirty
	tables    map[string]*sessionTable
	applied   uint64 // total updates accepted

	created  time.Time
	lastUsed time.Time // guarded by server.sessMu
}

// newSessionID derives a session ID: the body digest in hex (every
// peer can recover the routing anchor from the ID alone) plus a random
// suffix so re-posting the same body opens an independent session.
func newSessionID(sum [sha256.Size]byte) (string, error) {
	var r [4]byte
	if _, err := rand.Read(r[:]); err != nil {
		return "", fmt.Errorf("session id: %v", err)
	}
	return hex.EncodeToString(sum[:]) + "." + hex.EncodeToString(r[:]), nil
}

// parseSessionID recovers the routing digest embedded in a session ID.
func parseSessionID(id string) (sum [sha256.Size]byte, ok bool) {
	if len(id) != 2*sha256.Size+9 || id[2*sha256.Size] != '.' {
		return sum, false
	}
	raw, err := hex.DecodeString(id[:2*sha256.Size])
	if err != nil {
		return sum, false
	}
	copy(sum[:], raw)
	return sum, true
}

// mergeDirtyNodes folds a materialization's dirty node set into a
// table's pending set, keeping it sorted and unique.
func mergeDirtyNodes(pending, dirty []int32) []int32 {
	if len(dirty) == 0 {
		return pending
	}
	pending = append(pending, dirty...)
	slices.Sort(pending)
	return slices.Compact(pending)
}

// getSession looks a session up and bumps its recency.
func (s *server) getSession(id string) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess := s.sessions[id]
	if sess != nil {
		sess.lastUsed = time.Now()
	}
	return sess
}

// putSession stores a new session, evicting the least-recently-used
// one when the -max-sessions budget is exceeded.
func (s *server) putSession(sess *session) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for len(s.sessions) >= s.maxSessions {
		var oldest *session
		//lint:detiter-ok recency scan; the minimum is order-independent
		for _, cand := range s.sessions {
			if oldest == nil || cand.lastUsed.Before(oldest.lastUsed) {
				oldest = cand
			}
		}
		if oldest == nil {
			break
		}
		delete(s.sessions, oldest.id)
		s.sessionEvictions.Add(1)
	}
	sess.lastUsed = time.Now()
	s.sessions[sess.id] = sess
}

// dropSession removes a session; reports whether it existed.
func (s *server) dropSession(id string) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	return true
}

// sessionCount is the /statsz active-sessions gauge.
func (s *server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// fixedLane classifies an op whose lane and cost key never depend on
// the request.
func fixedLane(lane admission.Lane, costKey string) func(*call) (admission.Lane, string) {
	return func(*call) (admission.Lane, string) { return lane, costKey }
}

// lookupSession resolves the session a /session/{id} route names.
func (s *server) lookupSession(c *call) error {
	if c.sess = s.getSession(c.id); c.sess == nil {
		return errorf(http.StatusNotFound, "unknown session %q", c.id)
	}
	return nil
}

// createSession executes POST /session on the body resolved exactly as
// POST /backbone resolves it (content-addressed graph cache included):
// pin a delta overlay over the graph and answer with the session ID.
func (s *server) createSession(c *call) error {
	id, err := newSessionID(c.sum)
	if err != nil {
		return err
	}
	// Exclusive delta: sess.mu serializes every read/update cycle and
	// the session retains nothing beyond the latest materialization and
	// per-method table, so each generation's arrays are recycled in
	// place instead of copied (graph.Delta.SetExclusive).
	delta := graph.NewDelta(c.g, 0)
	delta.SetExclusive(true)
	s.putSession(&session{
		id:      id,
		sum:     c.sum,
		delta:   delta,
		g:       c.g,
		tables:  map[string]*sessionTable{},
		created: time.Now(),
	})
	s.sessionCreates.Add(1)

	c.outcome = admission.OK
	c.w.Header().Set("Location", "/session/"+id)
	c.w.Header().Set("Content-Type", "application/json")
	c.w.WriteHeader(http.StatusCreated)
	json.NewEncoder(c.w).Encode(map[string]any{
		"session":  id,
		"nodes":    c.g.NumNodes(),
		"edges":    c.g.NumEdges(),
		"directed": c.g.Directed(),
	})
	return nil
}

// sessionUpdateBody is the POST /session/{id}/update wire form. Edges
// are addressed by node label (the names the creating body used);
// weight > 0 upserts, weight == 0 (or omitted) deletes.
type sessionUpdateBody struct {
	Updates []sessionUpdateEdge `json:"updates"`
}

type sessionUpdateEdge struct {
	Src    string   `json:"src"`
	Dst    string   `json:"dst"`
	Weight *float64 `json:"weight"`
}

// updateSession executes POST /session/{id}/update: batched edge
// upserts/deletes into the session's delta overlay. No scoring runs
// here — dirtiness is recorded and the next read pays only for the
// rows it invalidated.
func (s *server) updateSession(c *call) error {
	var ub sessionUpdateBody
	if err := json.Unmarshal(c.body, &ub); err != nil {
		return errorf(http.StatusBadRequest, "bad update body: %v", err)
	}
	if len(ub.Updates) == 0 {
		return errorf(http.StatusBadRequest, `update body has no updates (want {"updates":[{"src":...,"dst":...,"weight":...}]})`)
	}

	sess := c.sess
	sess.mu.Lock()
	defer sess.mu.Unlock()
	base := sess.delta.Base()
	ups := make([]graph.Update, 0, len(ub.Updates))
	for i, e := range ub.Updates {
		src := base.NodeID(e.Src)
		if src < 0 {
			return errorf(http.StatusBadRequest, "updates[%d].src: unknown node %q", i, e.Src)
		}
		dst := base.NodeID(e.Dst)
		if dst < 0 {
			return errorf(http.StatusBadRequest, "updates[%d].dst: unknown node %q", i, e.Dst)
		}
		var weight float64
		if e.Weight != nil {
			weight = *e.Weight
		}
		ups = append(ups, graph.Update{Src: int32(src), Dst: int32(dst), Weight: weight})
	}
	if err := sess.delta.Apply(ups); err != nil {
		return &httpError{http.StatusBadRequest, err}
	}
	sess.applied += uint64(len(ups))
	s.sessionUpdates.Add(1)

	c.outcome = admission.OK
	c.w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(c.w).Encode(map[string]any{
		"session":       c.id,
		"applied":       len(ups),
		"pending":       sess.delta.Pending(),
		"updates_total": sess.applied,
	})
	return nil
}

// advance materializes the session's delta and folds the resulting
// dirty node set into every table's pending set. Must hold sess.mu.
// Returns the number of tables invalidated (counted once per table
// per materialization that dirtied it).
func (sess *session) advance() (g *repro.Graph, invalidated int) {
	g, dirty := sess.delta.Graph()
	if g == sess.g {
		return g, 0
	}
	if dirty.Base != sess.g {
		// Defensive: the delta materialized somewhere we did not observe,
		// so the dirty record does not connect to our last snapshot and
		// pending accumulation cannot be trusted. Drop every table —
		// the next read of each method pays a full (still bit-identical)
		// rescore instead of risking a stale row.
		//lint:detiter-ok every table is reset; order does not matter
		for name, t := range sess.tables {
			if t.scores != nil {
				invalidated++
			}
			delete(sess.tables, name)
		}
		sess.g, sess.lastDirty = g, dirty
		return g, invalidated
	}
	//lint:detiter-ok every table is updated; order does not matter
	for _, t := range sess.tables {
		t.pending = mergeDirtyNodes(t.pending, dirty.Nodes)
		if t.scores != nil {
			invalidated++
		}
	}
	sess.g, sess.lastDirty = g, dirty
	return g, invalidated
}

// sessionScores brings one method's table forward to the session's
// current materialization, re-scoring only dirty rows. Must hold
// sess.mu. Returns the fresh table and how many rows were re-scored
// (0 = pure reuse).
func (s *server) sessionScores(ctx context.Context, sess *session, g *repro.Graph, m *repro.Method, parallel bool) (*repro.Scores, int, error) {
	t := sess.tables[m.Name]
	if t == nil {
		t = &sessionTable{}
		sess.tables[m.Name] = t
	}
	if t.scores != nil && t.scores.G == g && len(t.pending) == 0 {
		return t.scores, 0, nil
	}
	if err := s.scoreGate(ctx); err != nil {
		return nil, 0, err
	}
	dirty := graph.Dirty{For: g, Nodes: t.pending}
	old := t.scores
	if old != nil {
		if ld := sess.lastDirty; ld.For == g && ld.Base == old.G {
			// Exactly one generation behind: the materialization's own
			// dirty record applies verbatim — row diff, surrender and
			// all (its Nodes are this table's pending set by
			// construction).
			dirty = ld
		} else {
			// Further behind. The delta is exclusive, so the old
			// table's graph has been cannibalized and its edge slice
			// must not be walked: leave old out and pay a full (still
			// bit-identical) rescore.
			old = nil
		}
	}
	opts := filter.ScoreOpts{Parallel: parallel}
	sc, rescored, err := filter.RescoreDirty(ctx, m, old, dirty, opts)
	if err != nil {
		return nil, 0, err
	}
	t.scores, t.pending = sc, nil
	s.sessionRescoredRows.Add(uint64(rescored))
	if rescored == g.NumEdges() {
		s.sessionFullRescores.Add(1)
	}
	return sc, rescored, nil
}

// classifySessionRead picks the admission lane for a session read:
// fast when the method's table already exists in the session (the read
// is a frontier rescore plus serialization), cold on first touch.
func (s *server) classifySessionRead(c *call) (admission.Lane, string) {
	method := c.q.Get("method")
	if method == "" {
		method = "nc"
	}
	s.sessMu.Lock()
	sess := s.sessions[c.id]
	s.sessMu.Unlock()
	if sess == nil {
		return admission.Fast, "session-read" // 404s should not queue behind scoring
	}
	sess.mu.Lock()
	t := sess.tables[method]
	warm := t != nil && t.scores != nil
	sess.mu.Unlock()
	if warm {
		return admission.Fast, "session-read"
	}
	return admission.Cold, method
}

// readSession executes GET /session/{id}/backbone and /score: the
// stateless /backbone | /score contract evaluated against the
// session's current (base + updates) edge set, incrementally.
// X-Backbone-Rescored reports the rows this read re-scored.
func (s *server) readSession(scoreOnly bool) func(*call) error {
	return func(c *call) error {
		req, err := parseRun(c, "", scoreOnly)
		if err != nil {
			return err
		}
		s.sessionReads.Add(1)
		sess := c.sess
		sess.mu.Lock()
		defer sess.mu.Unlock()
		g, invalidated := sess.advance()
		if invalidated > 0 {
			s.sessionInvalidations.Add(uint64(invalidated))
		}
		req.g = g
		rescored := 0
		scores, hit, err := s.table(c, req, scoreOnly, func(m *repro.Method, parallel bool) (*repro.Scores, bool, error) {
			sc, n, err := s.sessionScores(c.ctx, sess, g, m, parallel)
			rescored = n
			return sc, n == 0, err
		})
		if err != nil {
			return err
		}
		c.w.Header().Set("X-Backbone-Cache", cacheHeader(hit))
		c.w.Header().Set("X-Backbone-Session", c.id)
		c.w.Header().Set("X-Backbone-Rescored", strconv.Itoa(rescored))
		return s.respond(c, req, scoreOnly, scores)
	}
}

// deleteSession executes DELETE /session/{id}. It holds no worker slot.
func (s *server) deleteSession(c *call) error {
	if !s.dropSession(c.id) {
		return errorf(http.StatusNotFound, "unknown session %q", c.id)
	}
	s.sessionDeletes.Add(1)
	c.w.WriteHeader(http.StatusNoContent)
	return nil
}
