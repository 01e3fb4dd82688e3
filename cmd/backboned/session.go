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

// session is one live overlay: the delta accumulating updates, the
// latest materialization, and the per-method entries a read serves
// without a full computation. mu serializes all delta and entry access
// (graph.Delta is not concurrency-safe); lastUsed is guarded by
// server.sessMu, not mu, so eviction scans never wait on a session
// mid-score.
type session struct {
	id  string
	sum [sha256.Size]byte // creating body's digest: the fleet routing anchor

	mu    sync.Mutex
	delta *graph.Delta
	g     *repro.Graph // latest materialization (== delta's last Graph())
	// lastDirty is the dirty record of the latest materialization: a
	// table one generation behind rides its row diff (and, with an
	// exclusive delta, its in-place surrender).
	lastDirty graph.Dirty
	// tables holds each method's table for g, or, for a method that
	// rescores locally, for the generation before it; updateSession
	// drops every other table. extracts holds extractions of g alone.
	tables   map[string]*repro.Scores
	extracts map[string]repro.Selection
	applied  uint64 // total updates accepted

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
		id:        id,
		sum:       c.sum,
		delta:     delta,
		g:         c.g,
		lastDirty: graph.Dirty{For: c.g},
		tables:    map[string]*repro.Scores{},
		extracts:  map[string]repro.Selection{},
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
// rows it invalidated. The batch drops every entry the next
// materialization cannot carry forward by a frontier rescore: every
// extraction (the exclusive delta recycles the arrays a selection
// points into), every table already a generation behind, and every
// table of a method that does not rescore locally.
func (s *server) updateSession(c *call) error {
	var ub sessionUpdateBody
	if err := json.Unmarshal(c.body, &ub); err != nil {
		return errorf(http.StatusBadRequest, "bad update body: %v", err)
	}
	if len(ub.Updates) == 0 {
		return errorf(http.StatusBadRequest, `update body has no updates (want {"updates":[{"src":...,"dst":...,"weight":...}]})`)
	}

	// Locked here rather than in resolve, so a large update body never
	// decodes under the session lock.
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
	clear(sess.extracts)
	for name, t := range sess.tables {
		current := t.G == sess.g
		if current {
			s.sessionInvalidations.Add(1)
		}
		if m, err := repro.LookupMethod(name); !current || err != nil || !m.RescoresLocally() {
			delete(sess.tables, name)
		}
	}

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

// resolveSessionRead resolves GET /session/{id}/backbone and /score:
// the stateless /backbone | /score contract evaluated against the
// session's current (base + updates) edge set, incrementally. It takes
// the session lock, which serve releases after the reply is written:
// the reply is encoded straight off the materialization's arrays, which
// the exclusive delta recycles on the next materialization. It then
// materializes the delta, keeping the dirty record for the table reads
// that follow, and hands run the session's sources.
// X-Backbone-Rescored reports the rows the read re-scored.
func (s *server) resolveSessionRead(c *call) error {
	if err := s.lookupSession(c); err != nil {
		return err
	}
	sess := c.sess
	sess.mu.Lock()
	c.release = sess.mu.Unlock
	s.sessionReads.Add(1)
	if g, dirty := sess.delta.Graph(); g != sess.g {
		sess.g, sess.lastDirty = g, dirty
	}
	c.g = sess.g
	score := func(ctx context.Context, m *repro.Method) (*repro.Scores, bool, error) {
		sc, n, err := s.sessionScores(ctx, sess, m)
		c.rescored = n
		return sc, n == 0, err
	}
	c.sources = c.t.sources(score, sess.extract)
	c.headers = sessionHeaders
	return nil
}

// sessionHeaders are a session read's own reply headers.
func sessionHeaders(c *call, h http.Header) {
	h.Set("X-Backbone-Session", c.id)
	h.Set("X-Backbone-Rescored", strconv.Itoa(c.rescored))
}

// sessionScores brings one method's table forward to the session's
// current materialization, re-scoring only dirty rows. Must hold
// sess.mu. Returns the fresh table and how many rows were re-scored
// (0 = pure reuse).
func (s *server) sessionScores(ctx context.Context, sess *session, m *repro.Method) (*repro.Scores, int, error) {
	old := sess.tables[m.Name]
	if old != nil && old.G == sess.g {
		return old, 0, nil
	}
	if err := s.scoreGate(ctx); err != nil {
		return nil, 0, err
	}
	// A held table is one generation behind, so it rides the
	// materialization's dirty record: row diff, surrender and all. An
	// exclusive rescore consumes it even when it fails, so the table
	// leaves the session until its successor is ready.
	delete(sess.tables, m.Name)
	sc, rescored, err := filter.RescoreDirty(ctx, m, old, sess.lastDirty, filter.ScoreOpts{})
	if err != nil {
		return nil, 0, err
	}
	sess.tables[m.Name] = sc
	s.sessionRescoredRows.Add(uint64(rescored))
	if rescored == sess.g.NumEdges() {
		s.sessionFullRescores.Add(1)
	}
	return sc, rescored, nil
}

// extract is a session read's extract source: one method's extraction
// of the current materialization, extracted on first touch. Must hold
// sess.mu; run has already passed scoreGate.
func (sess *session) extract(ctx context.Context, m *repro.Method) (repro.Selection, bool, error) {
	if sel, ok := sess.extracts[m.Name]; ok {
		return sel, true, nil
	}
	sel, _, err := m.BackboneCtx(ctx, sess.g, nil, -1, nil, nil)
	if err != nil {
		return repro.Selection{}, false, err
	}
	sess.extracts[m.Name] = sel
	return sel, false, nil
}

// sessionHeld is a session read's held predicate: map membership in
// the session the route names. A missing session counts as held, so
// its 404 does not queue behind scoring.
func (s *server) sessionHeld(c *call) held {
	s.sessMu.Lock()
	sess := s.sessions[c.id]
	s.sessMu.Unlock()
	return func(m *repro.Method, extract bool) bool {
		if sess == nil {
			return true
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if extract {
			_, ok := sess.extracts[m.Name]
			return ok
		}
		return sess.tables[m.Name] != nil
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
