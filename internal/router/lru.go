package router

import (
	"container/list"
	"sync"

	"parallellives/internal/obs"
)

// LRU is a fixed-capacity least-recently-used cache from request key to
// a stored response — the router's response cache, the only one in the
// serving tier. It is safe for concurrent use; hit/miss counts are kept
// under the same lock as the structure itself, so they are exact.
type LRU[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	hits     uint64
	misses   uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns a cache holding at most capacity entries; a capacity
// of zero or less stores nothing (every Get is a miss).
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// CacheCapacity maps Options.CacheSize to an LRU capacity: zero means
// the default 256, negative means no cache.
func CacheCapacity(size int) int {
	if size == 0 {
		return 256
	}
	return max(size, 0)
}

// Get returns the cached value for key, marking it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores a value, evicting the least recently used entry when full.
func (c *LRU[V]) Put(key string, val V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
}

// Flush drops every entry, keeping the hit/miss history. An
// invalidation flushes so no cached body outlives the generation that
// rendered it.
func (c *LRU[V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}

// CacheStats is an LRU's accounting as the router renders it under
// "cache" in /v1/health.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

// Stats returns the counters and current size.
func (c *LRU[V]) Stats() (hits, misses uint64, size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len(), c.capacity
}

// mirror registers the cache's hit, miss and entry gauges in reg and
// returns the scrape hook that copies the counters into them, so the
// cache's hot path stays untouched.
func (c *LRU[V]) mirror(reg *obs.Registry) func() {
	hits := reg.Gauge(MetricCacheHits, "Response-cache hits since start.")
	misses := reg.Gauge(MetricCacheMisses, "Response-cache misses since start.")
	entries := reg.Gauge(MetricCacheEntries, "Response-cache entries currently held.")
	return func() {
		h, m, size, _ := c.Stats()
		hits.Set(float64(h))
		misses.Set(float64(m))
		entries.Set(float64(size))
	}
}
