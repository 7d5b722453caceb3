package serve

import (
	"container/list"
	"strconv"
	"sync"
)

// cached is one stored response body with its content type, plus the
// validator rendered for it and the generation it belongs to — carrying
// the ETag with the entry lets a cache hit answer, or match a client's
// If-None-Match, without rebuilding the string.
type cached struct {
	contentType string
	body        []byte
	etag        string
	gen         int64

	// Prebuilt single-value header slices, rendered once when the entry
	// is stored so a cache hit writes its headers without allocating.
	// Shared across responses and never mutated after construction; nil
	// on entries built inline for one response (error bodies), which
	// take the allocating path in writeBody.
	typeHdr []string
	lenHdr  []string
	etagHdr []string
}

// newCached builds a cache-ready entry with its header values rendered
// up front.
func newCached(contentType string, body []byte, etag string, gen int64) cached {
	c := cached{contentType: contentType, body: body, etag: etag, gen: gen}
	c.typeHdr = []string{contentType}
	c.lenHdr = []string{strconv.Itoa(len(body))}
	if etag != "" {
		c.etagHdr = []string{etag}
	}
	return c
}

// LRU is a fixed-capacity least-recently-used cache from request key to
// a stored response — the one implementation behind both the serving
// tier's and the router's response caches. It is safe for concurrent
// use; hit/miss counts are kept under the same lock as the structure
// itself, so they are exact.
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

// Flush drops every entry, keeping the hit/miss history. A snapshot
// reload flushes so no cached body outlives the generation that
// rendered it.
func (c *LRU[V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}

// CacheStats is an LRU's accounting as both fronts render it under
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
