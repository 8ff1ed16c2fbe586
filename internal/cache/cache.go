// Package cache is the serving stack's solve-result cache: a byte-budgeted
// LRU keyed by a canonical instance fingerprint, with singleflight request
// collapsing so N concurrent identical requests cost one solve.
//
// The paper's solvers are deterministic: the same instance, radius, norm,
// k, solver, and result-affecting options always produce the same center
// set, bit for bit. Under repeated or near-duplicate traffic re-running the
// solver is pure waste, so the serving layer memoizes complete results by
// Fingerprint and answers duplicates from memory — without consuming a
// worker slot. Three properties keep the cache sound:
//
//   - The key covers every input that can change the result (and nothing
//     that cannot — worker count is excluded because results are
//     bit-identical across parallelism; see Fingerprint).
//   - Only complete results enter the cache. Partial/anytime prefixes are
//     artifacts of a particular deadline, not of the instance, and are
//     never stored.
//   - Eviction is by byte budget, LRU order, so a burst of large one-off
//     instances cannot pin memory.
//
// Collapsing rides the same keys: the first request for an uncached key
// becomes the leader (runs the solve), later identical requests join its
// flight and wait for the leader's value instead of taking worker slots.
// A leader that ends without a cacheable value (partial result, error)
// wakes its followers empty-handed and they fall back to solving.
package cache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// DefaultMaxBytes is the byte budget a zero cache.New budget resolves to:
// enough for thousands of medium solve responses without threatening a
// serving box's memory.
const DefaultMaxBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost (key, list
// element, map slot) charged against the budget on top of the caller's
// payload size, so a flood of tiny entries still respects the budget.
const entryOverhead = 128

// Cache is a byte-budgeted LRU over fingerprint keys plus a singleflight
// table. All methods are safe for concurrent use. The zero value is not
// usable; construct with New.
type Cache struct {
	col obs.Collector

	mu      sync.Mutex
	max     int64
	bytes   int64
	ll      *list.List // front = most recently used
	items   map[Key]*list.Element
	flights map[Key]*Flight
}

type entry struct {
	key  Key
	val  any
	size int64 // payload + entryOverhead
}

// New builds a cache with the given byte budget. budget 0 means
// DefaultMaxBytes; the collector (may be nil) receives the eviction counter
// and the bytes/entries gauges.
func New(budget int64, col obs.Collector) *Cache {
	if budget == 0 {
		budget = DefaultMaxBytes
	}
	return &Cache{
		col:     obs.OrNop(col),
		max:     budget,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*Flight),
	}
}

// Lookup is the atomic entry point for the serving layer: it resolves key to
// exactly one of three outcomes under one lock acquisition.
//
//   - Cached: val non-nil, f nil — answer from memory.
//   - In flight: f non-nil, leader false — wait on f.Done() and read
//     f.Value() (nil means the leader produced nothing cacheable).
//   - Absent: f non-nil, leader true — the caller owns the solve and MUST
//     eventually call f.Deliver (nil when no cacheable value was produced),
//     or followers block until their own contexts expire.
//
// The atomicity matters: with a separate get-then-join, a request racing a
// leader's delivery could miss the cache and miss the flight, electing a
// second leader for work already done.
func (c *Cache) Lookup(key Key) (val any, f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).val, nil, false
	}
	if f, ok := c.flights[key]; ok {
		return nil, f, false
	}
	f = &Flight{c: c, key: key, done: make(chan struct{})}
	c.flights[key] = f
	return nil, f, true
}

// putLocked stores val under key, charging size (plus fixed overhead)
// against the budget and evicting least-recently-used entries until it fits.
// A value larger than the whole budget is not stored at all. key holds no
// entry: only its flight's Deliver stores it, and Lookup hands out no flight
// for a cached key. Callers hold c.mu.
func (c *Cache) putLocked(key Key, val any, size int64) {
	size += entryOverhead
	if size > c.max {
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
	c.bytes += size
	for c.bytes > c.max {
		c.evictOldestLocked()
	}
	c.gaugeLocked()
}

// evictOldestLocked drops the LRU entry. Callers hold c.mu.
func (c *Cache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.col.Count(obs.CtrCacheEvictions, 1)
}

func (c *Cache) gaugeLocked() {
	c.col.Gauge(obs.GaugeCacheBytes, float64(c.bytes))
	c.col.Gauge(obs.GaugeCacheEntries, float64(c.ll.Len()))
}

// Flight is one in-progress computation of a key's value. The leader (the
// caller Lookup reported leader=true to) computes the value and publishes it
// with Deliver; followers wait on Done and read Value.
type Flight struct {
	c    *Cache
	key  Key
	done chan struct{}
	val  any
	once sync.Once
}

// Deliver publishes the leader's value (nil when the solve produced nothing
// cacheable — a partial result or an error), stores a non-nil value in the
// LRU under the flight's key, unregisters the flight, and wakes every
// follower. Unregistering and storing happen atomically, so a concurrent
// Lookup sees either the flight or the cached value, never neither.
// Idempotent: only the first call publishes.
func (f *Flight) Deliver(val any, size int64) {
	f.once.Do(func() {
		c := f.c
		c.mu.Lock()
		delete(c.flights, f.key)
		f.val = val
		if val != nil {
			c.putLocked(f.key, val, size)
		}
		c.mu.Unlock()
		close(f.done)
	})
}

// Done is closed once the leader has delivered.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Value returns the delivered value (nil when the leader had nothing
// cacheable). Only valid after Done is closed.
func (f *Flight) Value() any { return f.val }
