package queryengine

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU result cache keyed by canonicalized
// query keys (Query.Key). Entries leave only by LRU eviction or by
// being overwritten; the cache never judges whether a value is still
// current. Values are opaque to it: a caller that serves a changing
// cube stamps each value with what it was computed from (the server
// stores the source view and its version, Metrics.Source/Version) and
// checks the stamp against the live Topology on every hit.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns an LRU cache holding up to capacity entries.
// Capacity must be positive.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		panic("queryengine: cache capacity must be positive")
	}
	return &Cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least recently used entry
// when the cache is full. Storing an existing key refreshes its value
// and recency.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}
