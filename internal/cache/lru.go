// Package cache holds the building blocks of BlendHouse's caches
// (paper §II-D and §IV-C): a size-aware LRU and a singleflight, which
// the blob tier and the decoded-index cache (lsm.IndexCache) are built
// from, and the adaptive column cache, whose row-limit admission keeps
// huge hybrid-query reads from evicting the hot set.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a byte-size-aware least-recently-used cache, safe for
// concurrent use, over any comparable key: blob caches key by string,
// the column cache by a granule-address struct that hashes in place.
// Values are opaque; callers supply each entry's size.
type LRU[K comparable] struct {
	mu       sync.Mutex
	capBytes int64
	size     int64
	ll       *list.List
	items    map[K]*list.Element
	onEvict  func(key K, value any)

	hits, misses int64
}

type lruEntry[K comparable] struct {
	key   K
	value any
	size  int64
}

// NewLRU returns a cache bounded to capBytes. capBytes <= 0 means the
// cache stores nothing (every Get misses), which callers use to
// disable a tier.
func NewLRU[K comparable](capBytes int64) *LRU[K] {
	return &LRU[K]{capBytes: capBytes, ll: list.New(), items: map[K]*list.Element{}}
}

// SetOnEvict installs an eviction callback (e.g. deleting the local
// disk copy when the disk tier's budget is exceeded).
//
// Concurrency contract: callbacks fire after the cache lock is
// released, so between an entry's removal and its callback a
// concurrent Put may re-insert the same key. The callback receives the
// EVICTED entry's value — callbacks that release external resources
// (files, handles) must key the cleanup off that value (own the
// resource via the value, or carry a generation in it) rather than
// assume the key still refers to the evicted entry; deleting shared
// per-key state would destroy the freshly re-inserted live entry's
// backing. Callers that cannot scope cleanup to the value must
// serialize Put and the cleanup externally (as blobtier.TieredStore
// does with its disk lock).
func (c *LRU[K]) SetOnEvict(fn func(key K, value any)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Get returns the cached value and marks it most-recently-used.
func (c *LRU[K]) Get(key K) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K]).value, true
	}
	c.misses++
	return nil, false
}

// Peek returns the cached value without touching recency or stats —
// for probes that are not reads (a size lookup must neither keep an
// entry alive nor count as a hit).
func (c *LRU[K]) Peek(key K) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[K]).value, true
	}
	return nil, false
}

// Contains reports presence without touching recency or stats.
func (c *LRU[K]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces an entry and evicts LRU entries until the
// budget holds. Entries larger than the whole budget are rejected
// (returned false) rather than flushing the cache for one item, and a
// disabled cache (capBytes <= 0) rejects everything — including
// zero-size entries — honoring the "stores nothing" contract.
//
// Eviction callbacks fire after c.mu is released: a callback that
// re-enters the cache (the disk tier's on-evict deletes files and may
// consult cache state) would otherwise deadlock. The flip side is that
// a callback can interleave with a concurrent re-insert of the same
// key — see the SetOnEvict contract.
func (c *LRU[K]) Put(key K, value any, size int64) bool {
	return c.PutIf(key, value, size, nil)
}

// PutIf is Put behind an admission gate: under c.mu it lists the
// entries Put would evict to make room, least recently used first (nil
// when the entry fits in free space), and stores the entry only if
// admit(victims) returns true. A nil admit admits everything. admit
// must not call back into c.
func (c *LRU[K]) PutIf(key K, value any, size int64, admit func(victims []K) bool) bool {
	c.mu.Lock()
	if c.capBytes <= 0 || size > c.capBytes {
		c.mu.Unlock()
		return false
	}
	if admit != nil && !admit(c.victims(key, size)) {
		c.mu.Unlock()
		return false
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K])
		c.size += size - e.size
		e.value, e.size = value, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruEntry[K]{key, value, size})
		c.items[key] = el
		c.size += size
	}
	var evicted []*lruEntry[K]
	for c.size > c.capBytes {
		e := c.evictOldest()
		if e == nil {
			break
		}
		evicted = append(evicted, e)
	}
	onEvict := c.onEvict
	c.mu.Unlock()
	if onEvict != nil {
		for _, e := range evicted {
			onEvict(e.key, e.value)
		}
	}
	return true
}

// victims lists, under c.mu, the keys that storing key at size would
// evict: the oldest entries other than key until the budget holds.
func (c *LRU[K]) victims(key K, size int64) []K {
	need := c.size + size - c.capBytes
	if el, ok := c.items[key]; ok {
		need -= el.Value.(*lruEntry[K]).size
	}
	var out []K
	for el := c.ll.Back(); need > 0 && el != nil; el = el.Prev() {
		if e := el.Value.(*lruEntry[K]); e.key != key {
			out = append(out, e.key)
			need -= e.size
		}
	}
	return out
}

// Remove drops an entry without invoking the eviction callback.
func (c *LRU[K]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K])
		c.ll.Remove(el)
		delete(c.items, key)
		c.size -= e.size
	}
}

// evictOldest pops the LRU entry under c.mu; the caller fires the
// eviction callback after unlocking.
func (c *LRU[K]) evictOldest() *lruEntry[K] {
	el := c.ll.Back()
	if el == nil {
		return nil
	}
	e := el.Value.(*lruEntry[K])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.size -= e.size
	return e
}

// Len returns the number of entries.
func (c *LRU[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// SizeBytes returns the summed entry sizes.
func (c *LRU[K]) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats returns hit/miss counters.
func (c *LRU[K]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Keys lists the cached keys, most recently used first, without
// touching recency or stats.
func (c *LRU[K]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, len(c.items))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K]).key)
	}
	return out
}

// Purge empties the cache without callbacks. It clears the list and
// map in place: a cold-node reset per query allocates nothing.
func (c *LRU[K]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.size = 0
}
