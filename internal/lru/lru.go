// Package lru provides the bounded, reference-counted LRU cache behind
// every shared-plan surface in this repository: the serving layer's plan
// cache (internal/serve), the public shared-plan constructors, and the
// fft1d plan cache.
//
// Two properties distinguish it from a textbook LRU:
//
//   - Reference counting with deferred close. GetOrCreate hands out a
//     release function with every value; an entry evicted from the cache is
//     not closed until its last outstanding reference drains, so a plan can
//     be evicted while transforms are still in flight on it without
//     closing it underneath them.
//
//   - Reentrant construction. The builder runs outside the cache lock
//     (concurrent requests for the same key wait on a ready channel instead
//     of duplicating the build), so a builder may itself call GetOrCreate —
//     the fft1d planner builds a Bluestein stage's power-of-two plan
//     through the same cache.
package lru

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Len       int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

type entry[K comparable, V any] struct {
	key     K
	val     V
	err     error
	refs    int
	evicted bool          // no longer in the map/list; close when refs drain
	ready   chan struct{} // closed once val/err is set
	elem    *list.Element // position in Cache.order while cached
	// rel is the release function GetOrCreate hands out, built once per
	// entry so a hit allocates nothing. Every acquisition gets the same
	// func and must call it exactly once.
	rel func()
}

// Cache is a bounded LRU keyed by K. All methods are safe for concurrent
// use. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	onClose  func(K, V) // may be nil: evicted values are simply dropped
	entries  map[K]*entry[K, V]
	order    *list.List // front = most recently used

	hits, misses, evictions uint64
}

// New returns a cache holding at most capacity entries. onClose, if
// non-nil, is called (outside the cache lock) when an evicted entry's last
// reference drains — for plan caches this is where the executor's worker
// team is released.
func New[K comparable, V any](capacity int, onClose func(K, V)) *Cache[K, V] {
	if capacity < 1 {
		panic(fmt.Sprintf("lru: capacity must be ≥ 1, got %d", capacity))
	}
	return &Cache[K, V]{
		capacity: capacity,
		onClose:  onClose,
		entries:  make(map[K]*entry[K, V]),
		order:    list.New(),
	}
}

// GetOrCreate returns the cached value for key, building it with build on a
// miss, plus a release function the caller must invoke exactly once when
// done with the value. Concurrent callers of the same missing key share one
// build. A build error is returned to every waiter and the entry is
// dropped, so a later call retries.
func (c *Cache[K, V]) GetOrCreate(key K, build func() (V, error)) (V, func(), error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		c.order.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			var zero V
			c.release(e)
			return zero, nil, e.err
		}
		return e.val, e.rel, nil
	}
	e := &entry[K, V]{key: key, refs: 1, ready: make(chan struct{})}
	e.rel = func() { c.release(e) }
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.misses++
	evicted := c.evictOverflowLocked(e)
	c.mu.Unlock()
	c.closeAll(evicted)

	v, err := build()

	c.mu.Lock()
	e.val, e.err = v, err
	close(e.ready)
	if err != nil && !e.evicted {
		// Drop the failed entry so the next caller retries the build.
		c.removeLocked(e)
	}
	c.mu.Unlock()
	if err != nil {
		var zero V
		c.release(e)
		return zero, nil, err
	}
	return v, e.rel, nil
}

// evictOverflowLocked evicts least-recently-used entries (never keep, the
// entry just inserted) until the cache fits its capacity, returning the
// entries whose close is due now (no outstanding references).
func (c *Cache[K, V]) evictOverflowLocked(keep *entry[K, V]) []*entry[K, V] {
	var due []*entry[K, V]
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		victim := back.Value.(*entry[K, V])
		if victim == keep {
			// Capacity 1 and the new entry is the only one; nothing to do.
			break
		}
		c.removeLocked(victim)
		c.evictions++
		if victim.refs == 0 {
			due = append(due, victim)
		}
	}
	return due
}

// removeLocked unlinks an entry from the map and recency list and marks it
// evicted; the caller decides whether its close is due.
func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
	e.evicted = true
}

// release drops one reference; an evicted entry whose last reference drains
// is closed here.
func (c *Cache[K, V]) release(e *entry[K, V]) {
	c.mu.Lock()
	e.refs--
	due := e.evicted && e.refs == 0
	c.mu.Unlock()
	if due {
		c.closeEntry(e)
	}
}

func (c *Cache[K, V]) closeAll(es []*entry[K, V]) {
	for _, e := range es {
		c.closeEntry(e)
	}
}

// closeEntry runs onClose for a fully drained evicted entry. Entries that
// never built successfully have nothing to close.
func (c *Cache[K, V]) closeEntry(e *entry[K, V]) {
	<-e.ready // the builder may still be publishing val/err
	if e.err == nil && c.onClose != nil {
		c.onClose(e.key, e.val)
	}
}

// Purge evicts every entry. Entries without outstanding references are
// closed before Purge returns; the rest close as their references drain.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	var due []*entry[K, V]
	for e := c.order.Front(); e != nil; {
		next := e.Next()
		victim := e.Value.(*entry[K, V])
		c.removeLocked(victim)
		c.evictions++
		if victim.refs == 0 {
			due = append(due, victim)
		}
		e = next
	}
	c.mu.Unlock()
	c.closeAll(due)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Len:       c.order.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
