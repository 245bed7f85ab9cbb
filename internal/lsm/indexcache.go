package lsm

import (
	"context"
	"slices"

	"blendhouse/internal/cache"
	"blendhouse/internal/index"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// IndexCache holds one compute node's decoded vector indexes (paper
// §II-D): the engine's, for every table's executor, or a VW worker's.
// A handle is keyed by table and immutable segment name and holds
// nothing query-specific (deletes come with each query's Version), so
// writes never invalidate it; the table's retire hook drops it. The
// node gives handles 1 GiB, least recently used out first, and
// concurrent misses on one segment load its blob once.
type IndexCache struct {
	store storage.BlobStore // where index blobs are read
	lru   *cache.LRU[indexKey]
	sf    cache.Singleflight[indexKey, index.Index]
}

type indexKey struct {
	t   *Table
	seg string
}

// NewIndexCache returns an empty cache that reads index blobs from
// store.
func NewIndexCache(store storage.BlobStore) *IndexCache {
	return &IndexCache{store: store, lru: cache.NewLRU[indexKey](1 << 30)}
}

// Index returns s's index: a memtable segment's own (its name outlives
// its contents, so it is never cached), or a stored segment's handle,
// loaded on a miss unless a load that finished meanwhile cached it. ctx
// bounds the blob read; a trace on it counts the hit or miss and read.
func (c *IndexCache) Index(ctx context.Context, t *Table, s *Segment) (index.Index, error) {
	if s.Index != nil {
		return s.Index, nil
	}
	key := indexKey{t, s.Meta.Name}
	tally := obs.TraceFrom(ctx).IdxTally()
	if ix, ok := c.Get(t, key.seg); ok {
		tally.Hit()
		return ix, nil
	}
	tally.Miss()
	t.watch(c)
	return c.sf.Do(key, func() (index.Index, error) {
		if ix, ok := c.Get(t, key.seg); ok {
			return ix, nil
		}
		ix, err := t.loadIndex(ctx, c.store, s)
		if err == nil {
			c.lru.Put(key, ix, ix.MemoryBytes())
		}
		return ix, err
	})
}

// Get returns the cached handle of t's segment seg, loading nothing.
func (c *IndexCache) Get(t *Table, seg string) (index.Index, bool) {
	v, ok := c.lru.Get(indexKey{t, seg})
	ix, _ := v.(index.Index)
	return ix, ok
}

// Segments lists, sorted, t's segments whose handle the cache holds.
func (c *IndexCache) Segments(t *Table) []string {
	var names []string
	for _, k := range c.lru.Keys() {
		if k.t == t {
			names = append(names, k.seg)
		}
	}
	slices.Sort(names)
	return names
}

// Purge drops every handle: the node turns cold.
func (c *IndexCache) Purge() { c.lru.Purge() }

// watch registers, once per cache, t's retire hook that drops a
// retired segment's handle from c.
func (t *Table) watch(c *IndexCache) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !slices.Contains(t.caches, c) {
		t.caches = append(t.caches, c)
		t.retireHooks = append(t.retireHooks, func(seg string) { c.lru.Remove(indexKey{t, seg}) })
	}
}
