package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop load generator. Arrivals follow a schedule fixed in
// advance from the seed; they do not wait for earlier replies, so a slow
// program meets the same traffic as a fast one. Exactly two
// keep-alive connections carry the load, one per worker; an arrival
// that falls due while both are busy waits in the client's queue, and
// its latency counts from the moment it was due, so a stall is charged
// to every request it delays. No arrival is dropped.

// conns is the number of connections (and client workers) the load
// uses; with the daemon's two workers on a two-core host it keeps
// client and program at no more threads than cores.
const conns = 2

// arrival is one scheduled operation.
type arrival struct {
	seq  int           // position in the plan
	due  time.Duration // after the run starts
	kind int           // index into the workload's op names
	arg  int           // which body, update, ... the op uses
}

// pacedPlan draws arrivals at the given mean rate for the given
// duration, each gap uniform between half and one and a half times the
// mean gap; next picks each arrival's kind and argument. Every arrival
// draws from the one stream in order, so a shorter plan from the same
// seed is a prefix of a longer one.
//
// Poisson gaps bunch arrivals, and how many bunched up decided a run's
// p90 more than the program did: with them, session-live's p90 spread
// over ten seeds was 0.20. Bounded gaps keep two arrivals from falling
// due within one op's time unless the program slows down.
func pacedPlan(rng *rand.Rand, rate float64, d time.Duration, next func(*rand.Rand) (kind, arg int)) []arrival {
	var plan []arrival
	t := time.Duration(0)
	for {
		t += time.Duration((0.5 + rng.Float64()) / rate * float64(time.Second))
		if t >= d {
			return plan
		}
		kind, arg := next(rng)
		plan = append(plan, arrival{seq: len(plan), due: t, kind: kind, arg: arg})
	}
}

// dealer hands out op kinds so that every block of len(deck) arrivals
// holds each kind exactly as often as the deck does, in seeded order.
// Drawn independently, a seed's share of the slow kind strayed by a
// quarter either way (serve-hot: 158 to 204 /evaluate arrivals in 20 s),
// and p90, which sits where the two kinds' latencies meet, followed it.
type dealer struct {
	deck []int
	pos  int
}

func (d *dealer) next(rng *rand.Rand) int {
	if d.pos == 0 {
		rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	k := d.deck[d.pos]
	d.pos = (d.pos + 1) % len(d.deck)
	return k
}

// sample is one arrival's outcome; times are since the run started.
type sample struct {
	arrival
	dequeued time.Duration // a worker took it (after sleeping until due, or from the queue)
	sent     time.Duration // request written (traced runs; else = dequeued)
	headers  time.Duration // response headers read
	done     time.Duration // response body read
	queued   bool          // it fell due while both connections were busy
	status   int
	bytes    int
	// handlerMs is the daemon's X-Backbone-Duration-Ms, -1 when absent.
	handlerMs float64
	// wrong marks a 2xx reply whose output differs from the reference.
	wrong bool
	err   error
}

func (s *sample) ok() bool           { return s.err == nil && s.status/100 == 2 && !s.wrong }
func (s *sample) latencyMs() float64 { return ms(s.done - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop runs plan with one worker per connection. do performs one
// arrival over the worker's connection and fills in its reply; traced
// makes the workers record when each request was written and when its
// first response byte arrived.
func openLoop(ctx context.Context, plan []arrival, traced bool, do func(ctx context.Context, s *sample, l *loader)) []sample {
	samples := make([]sample, len(plan))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &loader{start: start, traced: traced}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) || ctx.Err() != nil {
					return
				}
				s := &samples[i]
				s.arrival = plan[i]
				s.queued = s.due <= time.Since(start)
				for wait := s.due - time.Since(start); wait > 0; wait = s.due - time.Since(start) {
					sleep(wait)
				}
				s.dequeued = time.Since(start)
				do(ctx, s, l)
			}
		}()
	}
	wg.Wait()
	return samples
}

// loadClient carries the load: at most conns connections, kept alive.
var loadClient = &http.Client{
	Timeout: 120 * time.Second,
	Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	},
}

// loader is one worker's request state: its reply buffer and whether
// client timestamps are traced.
type loader struct {
	start  time.Time
	traced bool
	buf    bytes.Buffer
}

// send performs one request for s and leaves the reply body in l.buf.
func (l *loader) send(ctx context.Context, s *sample, method, url, ctype string, body io.Reader, size int64) http.Header {
	s.sent, s.handlerMs = s.dequeued, -1
	if l.traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { s.sent = time.Since(l.start) },
			GotFirstResponseByte: func() { s.headers = time.Since(l.start) },
		})
	}
	l.buf.Reset()
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		s.err = err
		return nil
	}
	req.ContentLength = size
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := loadClient.Do(req)
	if err != nil {
		s.err, s.done = err, time.Since(l.start)
		return nil
	}
	if !l.traced {
		s.headers = time.Since(l.start)
	}
	_, err = l.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = time.Since(l.start)
	s.status, s.bytes, s.err = resp.StatusCode, l.buf.Len(), err
	if v := resp.Header.Get("X-Backbone-Duration-Ms"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			s.handlerMs = f
		}
	}
	return resp.Header
}
