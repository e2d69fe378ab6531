// Package qcache is a bounded LRU cache for query results, made safe under
// mutations by generation validation: every entry is stamped with the
// collection generation (its acked-mutation counter) that was
// current when its search STARTED, and a lookup only hits when the stamp
// equals the caller's current generation. One acked mutation bumps the
// generation, so the whole cache is invalidated in O(1) without scanning —
// stale entries simply stop matching and age out of the LRU.
//
// Stamping with the generation read before the search (not after) is what
// makes racing mutations safe: if a mutation lands while a search is in
// flight, the result may or may not see it, but the Put carries the old
// generation, so the ambiguous entry can never satisfy a post-mutation read.
package qcache

import (
	"container/list"
	"sync"

	"topk/internal/ranking"
)

// Key identifies one cacheable query. Collection scopes the entry to one
// tenant in a multi-collection server — two collections may hold the same
// query text at the same generation, so the collection identity must join
// the generation stamp (callers should use an instance-unique value, not
// just the collection name, so that dropping and recreating a collection
// can never revive entries cached against its predecessor). Kind separates
// endpoint semantics ("search" vs "knn"); Query is the canonical ranking
// text; Theta is the range threshold (0 for KNN); N is the neighbor count
// (0 for range search).
type Key struct {
	Collection string
	Kind       string
	Query      string
	Theta      float64
	N          int
}

type entry struct {
	key Key
	gen uint64
	res []ranking.Result
}

// Cache is a bounded, generation-validated LRU. All methods are safe for
// concurrent use, and all are no-ops on a nil *Cache, so callers thread it
// unconditionally and disable caching by simply not constructing one.
//
// Cached result slices are shared between callers and must be treated as
// immutable — the serving layer only serializes them.
type Cache struct {
	mu            sync.Mutex
	max           int
	ll            *list.List // MRU at front; values are *entry
	byKey         map[Key]*list.Element
	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64 // misses caused by a stale generation
}

// New creates a cache bounded to maxEntries. maxEntries ≤ 0 returns nil —
// the disabled cache.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		return nil
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		byKey: make(map[Key]*list.Element, maxEntries),
	}
}

// Get returns the cached result for key if present and stamped with gen.
// A present-but-stale entry is dropped eagerly and counted as an
// invalidation. The ok result distinguishes a cached empty result (nil, true)
// from a miss (nil, false).
func (c *Cache) Get(key Key, gen uint64) ([]ranking.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := elem.Value.(*entry)
	if e.gen != gen {
		c.ll.Remove(elem)
		delete(c.byKey, key)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(elem)
	c.hits++
	return e.res, true
}

// Put stores res under key, stamped with gen — the generation read BEFORE
// the search that produced res ran. An existing entry is replaced; when the
// cache is full the least-recently-used entry is evicted.
func (c *Cache) Put(key Key, gen uint64, res []ranking.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byKey[key]; ok {
		e := elem.Value.(*entry)
		e.gen, e.res = gen, res
		c.ll.MoveToFront(elem)
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry{key: key, gen: gen, res: res})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Len returns the number of live entries (stale ones included until touched).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time view for /stats and /metrics. Invalidations are
// the subset of Misses caused by a stale generation.
type Stats struct {
	Entries       int    `json:"entries"`
	MaxEntries    int    `json:"maxEntries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats snapshots the cache; the zero Stats for a nil (disabled) cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       c.ll.Len(),
		MaxEntries:    c.max,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
