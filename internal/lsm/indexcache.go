package lsm

import (
	"context"
	"slices"
	"sync"

	"blendhouse/internal/cache"
	"blendhouse/internal/index"
	"blendhouse/internal/index/flat"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// IndexCache holds one compute node's decoded vector indexes (paper
// §II-D): the engine's, for every table's executor, or a VW worker's.
// A handle is keyed by table and immutable segment name and holds
// nothing query-specific (deletes come with each query's Version), so
// writes never invalidate it; a table drops the handle of a segment
// that retires from every cache holding its handles. The node gives
// handles 1 GiB, least recently used out first, and concurrent misses
// on one segment load its blob once.
type IndexCache struct {
	store storage.BlobStore // where index blobs are read
	lru   *cache.LRU[indexKey]
	sf    cache.Singleflight[indexKey, index.Index]

	mu     sync.Mutex // orders a handle's Put and its table's watch against Purge
	tables []*Table   // the tables whose caches list c
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
	return c.sf.Do(key, func() (index.Index, error) {
		if ix, ok := c.Get(t, key.seg); ok {
			return ix, nil
		}
		ix, err := t.loadIndex(ctx, c.store, s)
		if err == nil {
			c.mu.Lock()
			if !slices.Contains(c.tables, t) {
				c.tables = append(c.tables, t)
				t.watch(c, true)
			}
			c.lru.Put(key, ix, ix.MemoryBytes())
			c.mu.Unlock()
		}
		return ix, err
	})
}

// Searcher is s's index or, when s has no index blob, a flat index
// over its vector column with the row offsets as ids (brute): every
// placement answers such a segment so, with the exact kernel flat
// segments run on — the fallback of paper §II-D that a VW's serving
// exists to avoid.
func (c *IndexCache) Searcher(ctx context.Context, t *Table, s *Segment) (ix index.Index, brute bool, err error) {
	// IsNotFound allocates, so a hit does not ask it.
	if ix, err = c.Index(ctx, t, s); err == nil || !storage.IsNotFound(err) {
		return ix, false, err
	}
	col, err := s.Reader.ReadColumn(ctx, t.opts.IndexColumn)
	if err != nil {
		return nil, true, err
	}
	return flat.View(t.buildParamsFor(index.Flat, s.Meta.Rows), col.Vecs, nil), true, nil
}

// noRelease frees the engine's one node: nothing holds it.
func noRelease() {}

// Occupy is the engine's one-node placement of a scan (exec.Placement):
// the node is this process, never busy, and its searcher for s is
// Searcher's, or none for an exact scan (plan A reads its rows itself).
func (c *IndexCache) Occupy(ctx context.Context, t *Table, s *Segment, exact bool) (index.Searcher, func(), error) {
	if exact {
		return nil, noRelease, nil
	}
	ix, _, err := c.Searcher(ctx, t, s)
	return ix, noRelease, err
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

// Purge drops every handle, and c leaves every table's list: the node
// turns cold, or leaves its VW.
func (c *IndexCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Purge()
	for _, t := range c.tables {
		t.watch(c, false)
	}
	c.tables = nil
}

// watch adds c to t's caches, the ones a retiring segment's handle is
// dropped from, or with on false takes it off. A retirement may be
// reading the list it replaces, so a removal copies it.
func (t *Table) watch(c *IndexCache, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.caches = append(t.caches, c)
	} else {
		t.caches = slices.DeleteFunc(slices.Clone(t.caches), func(x *IndexCache) bool { return x == c })
	}
}

// Watchers is the number of caches that hold handles of t's segments.
func (t *Table) Watchers() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.caches)
}
