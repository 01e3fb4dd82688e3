// Package cache provides a byte-bounded LRU memo cache with integrated
// single-flight deduplication, the building block of the backboned
// daemon's content-addressed request caching, and that single-flight
// on its own (Flight), which the fleet's forwarder shares.
//
// The cache is generic over key and value: the daemon keys parsed
// graphs by a content hash of the request body and score tables by
// (graph hash, method). Do is the primary entry point — it returns a
// cached value, joins an in-flight computation for the same key, or
// computes and stores the value itself. Values never expire by time;
// they are evicted least-recently-used when the configured byte budget
// overflows.
package cache

import (
	"container/list"
	"context"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters. Every Do
// call counts exactly once, under Hits, Misses or Coalesced.
type Stats struct {
	// Hits counts Do calls answered from a cached entry.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that ran their compute.
	Misses uint64 `json:"misses"`
	// Coalesced counts Do calls served by another caller's in-flight
	// computation instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries removed to honor the byte budget.
	Evictions uint64 `json:"evictions"`
	// Entries is the current entry count.
	Entries int `json:"entries"`
	// Bytes is the summed cost of current entries; MaxBytes the budget.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// LRU is a concurrency-safe, byte-bounded, least-recently-used memo
// cache with single-flight deduplication. A nil *LRU is a valid
// always-miss cache: Do computes directly — so callers can disable
// caching by configuration without branching.
type LRU[K comparable, V any] struct {
	mu     sync.Mutex
	max    int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[K]*list.Element
	stats  Stats
	flight Flight[K, V]
}

type entry[K comparable, V any] struct {
	key  K
	v    V
	cost int64
}

// New returns an LRU bounded to maxBytes of summed entry cost, or nil
// (the always-miss cache) when maxBytes <= 0.
func New[K comparable, V any](maxBytes int64) *LRU[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &LRU[K, V]{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Do returns the value for key: from the cache, by joining an
// identical in-flight computation, or by running compute (which
// reports the value's cost in bytes). hit is true when compute did not
// run in this call — the caller skipped the work. Failed computations
// are never cached; their error goes to the leader, and waiters retry
// (one of them becoming the new leader) unless their own ctx is done.
func (c *LRU[K, V]) Do(ctx context.Context, key K, compute func() (V, int64, error)) (v V, hit bool, err error) {
	if c == nil {
		v, _, err := compute()
		return v, false, err
	}
	if v, ok := c.lookup(key); ok {
		return v, true, nil
	}
	computed := false
	v, waited, err := c.flight.Do(ctx, key, func() (V, error) {
		// A leader that finished between our lookup and this flight
		// has stored its value already: check the entry again.
		if v, ok := c.lookup(key); ok {
			return v, nil
		}
		c.bump(&c.stats.Misses)
		computed = true
		v, cost, err := compute()
		if err == nil {
			// Stored before the flight ends, so no caller can miss
			// both the entry and the flight.
			c.mu.Lock()
			c.add(key, v, cost)
			c.mu.Unlock()
		}
		return v, err
	})
	if waited {
		c.bump(&c.stats.Coalesced)
	}
	return v, err == nil && !computed, err
}

// bump increments one of c.stats' counters.
func (c *LRU[K, V]) bump(n *uint64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// lookup returns key's entry, bumping its recency and the hit counter.
func (c *LRU[K, V]) lookup(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry[K, V]).v, true
}

// Contains reports whether key is cached right now, without bumping
// recency or touching the hit/miss counters — a pure peek for callers
// that classify a request by cache residency (the daemon's admission
// lanes) before deciding whether to serve it at all.
func (c *LRU[K, V]) Contains(key K) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// add inserts a key Do found absent under c.mu, evicting
// least-recently-used entries as needed. Values costing more than the
// whole budget are not stored at all.
func (c *LRU[K, V]) add(key K, v V, cost int64) {
	if cost < 0 {
		cost = 0
	}
	if cost > c.max {
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, v: v, cost: cost})
	c.bytes += cost
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[K, V])
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.cost
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache's counters. A nil cache
// reports zeros.
func (c *LRU[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.max
	return s
}
