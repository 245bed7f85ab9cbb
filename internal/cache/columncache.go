package cache

import (
	"context"
	"sync/atomic"

	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// ColumnCacheConfig sizes the adaptive column cache and sets its
// admission control.
type ColumnCacheConfig struct {
	// DataBytes bounds the block-data space.
	DataBytes int64
	// RowLimit is the paper's thrash guard (§IV-C): a query reading
	// more than this many rows bypasses the cache entirely, so one
	// analytical scan can't evict the hot working set of point-ish
	// hybrid reads. Zero means no limit.
	RowLimit int
}

// DefaultColumnCacheConfig holds 256 MiB of decoded granules and
// bypasses queries reading more than 100 000 rows.
func DefaultColumnCacheConfig() ColumnCacheConfig {
	return ColumnCacheConfig{DataBytes: 256 << 20, RowLimit: 100_000}
}

// granuleKey addresses one cached piece of a column. It is a struct,
// not a rendered path, so a lookup hashes the segment's own strings in
// place and allocates nothing.
type granuleKey struct {
	table, seg, col string
	// block is the granule number, or wholeColumn for the entry holding
	// the entire decoded column.
	block int32
}

const wholeColumn = -1

// ColumnCache caches decoded column granules in front of a (remote)
// blob store. It is the READ_Opt of paper §V-B8.
type ColumnCache struct {
	cfg  ColumnCacheConfig
	data *LRU[granuleKey]

	bypasses atomic.Int64
}

// NewColumnCache builds an empty cache.
func NewColumnCache(cfg ColumnCacheConfig) *ColumnCache {
	return &ColumnCache{cfg: cfg, data: NewLRU[granuleKey](cfg.DataBytes)}
}

// Stats exposes hit/miss/bypass counters for the workload-aware
// optimization benchmarks.
func (c *ColumnCache) Stats() (dataHits, dataMisses, bypasses int64) {
	h, m := c.data.Stats()
	return h, m, c.bypasses.Load()
}

// ReadRows reads the requested rows of a column through the cache.
// reader is the underlying segment reader; queryRows is the total
// number of rows the query is fetching, used for admission control.
// ctx bounds the underlying blob reads (nil = unbounded); a trace on it
// (obs.TraceFrom) tallies hit/miss per granule and admission-control
// bypasses.
func (c *ColumnCache) ReadRows(ctx context.Context, reader *storage.SegmentReader, col string, rows []int, queryRows int) (*storage.ColumnData, error) {
	if reader.InMemory() { // a memtable segment: its name does not name its rows
		return reader.ReadRowsCtx(ctx, col, rows)
	}
	if c.cfg.RowLimit > 0 && queryRows > c.cfg.RowLimit {
		// Too big: bypass so we don't thrash the hot set.
		c.bypasses.Add(1)
		obs.TraceFrom(ctx).ColTally().Bypass()
		return reader.ReadRowsCtx(ctx, col, rows)
	}
	return c.readRowsCached(ctx, reader, col, rows)
}

// readRowsCached assembles the rows from per-granule pieces held in
// the data space, loading a missing granule with one range read. Each
// distinct granule the rows touch is looked up — and tallied as hit or
// miss — exactly once per read; a warm read allocates only its output.
func (c *ColumnCache) readRowsCached(ctx context.Context, reader *storage.SegmentReader, col string, rows []int) (*storage.ColumnData, error) {
	tally := obs.TraceFrom(ctx).ColTally()
	key := granuleKey{table: reader.Meta.Table, seg: reader.Meta.Name, col: col}
	return reader.GatherRows(col, rows, func(block int) (*storage.ColumnData, error) {
		key.block = int32(block)
		if v, hit := c.data.Get(key); hit {
			tally.Hit()
			return v.(*storage.ColumnData), nil
		}
		tally.Miss()
		blk, size, err := reader.ReadGranuleCtx(ctx, col, block)
		if err != nil {
			return nil, err
		}
		c.data.Put(key, blk, size)
		return blk, nil
	})
}

// ReadColumn reads a whole column through the cache — the structured
// scan path of the pre-filter strategy reads entire predicate columns,
// and caching their decoded form is part of §IV-C's adaptive caching.
// ctx bounds the blob read; a trace on it tallies the hit or miss.
func (c *ColumnCache) ReadColumn(ctx context.Context, reader *storage.SegmentReader, col string) (*storage.ColumnData, error) {
	if reader.InMemory() {
		return reader.ReadColumnCtx(ctx, col)
	}
	tally := obs.TraceFrom(ctx).ColTally()
	key := granuleKey{table: reader.Meta.Table, seg: reader.Meta.Name, col: col, block: wholeColumn}
	if v, ok := c.data.Get(key); ok {
		tally.Hit()
		return v.(*storage.ColumnData), nil
	}
	tally.Miss()
	cd, err := reader.ReadColumnCtx(ctx, col)
	if err != nil {
		return nil, err
	}
	c.data.Put(key, cd, approxColumnBytes(cd))
	return cd, nil
}

func approxColumnBytes(cd *storage.ColumnData) int64 {
	n := int64(8*len(cd.Ints) + 8*len(cd.Floats) + 4*len(cd.Vecs))
	for _, s := range cd.Strs {
		n += int64(len(s)) + 16
	}
	return n
}
