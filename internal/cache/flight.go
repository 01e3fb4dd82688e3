package cache

import (
	"context"
	"errors"
	"sync"
)

// Flight deduplicates concurrent computations of one key: the first
// caller runs fn as the key's leader, and callers arriving while it
// runs wait for its result. A failed or panicking leader never
// poisons its waiters — its failure may be its own context's — so
// they retry, one becoming the new leader, unless their own ctx is
// done. Nothing outlives the flight; memoization is the caller's
// business (LRU.Do stores the value before its leader leaves). The
// zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one in-progress computation other callers can wait on.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errLeaderPanicked is what waiters observe when a leader's fn
// panicked; they retry rather than inherit it.
var errLeaderPanicked = errors.New("cache: flight leader panicked")

// Do returns fn's value for key, either by running fn as the leader or
// by waiting on an identical call already in flight. waited reports
// that the result came from another caller's fn: false whenever this
// call ran fn itself, retries after a failed leader included.
func (f *Flight[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, waited bool, err error) {
	for {
		f.mu.Lock()
		if c, ok := f.calls[key]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
				if c.err == nil {
					return c.v, true, nil
				}
				if ctxErr := ctx.Err(); ctxErr != nil {
					return v, true, ctxErr
				}
				continue // the leader failed; try to lead ourselves
			case <-ctx.Done():
				return v, true, ctx.Err()
			}
		}
		if f.calls == nil {
			f.calls = make(map[K]*call[V])
		}
		c := &call[V]{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()

		f.lead(key, c, fn)
		return c.v, false, c.err
	}
}

// lead runs fn as the flight's leader. The deferred cleanup runs even
// if fn panics: the call is removed and its done channel closed (with
// an error set) so the key is never wedged — waiters retry, and the
// panic itself keeps unwinding to the leader's caller (net/http's
// handler recovery, in the daemon).
func (f *Flight[K, V]) lead(key K, c *call[V], fn func() (V, error)) {
	completed := false
	defer func() {
		if !completed {
			c.err = errLeaderPanicked
		}
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = fn()
	completed = true
}
