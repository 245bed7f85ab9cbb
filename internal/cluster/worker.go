// Package cluster implements the disaggregated compute layer of
// BlendHouse (paper §II): virtual warehouses (VWs) of stateless
// workers over shared remote storage, segment scheduling with
// multi-probe consistent hashing, the vector-search-serving RPC that
// papers over index-cache misses during scaling, cache-aware preload,
// and query-level fault tolerance.
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/cache"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// VW-wide search counters (SHOW METRICS / the -debug-addr endpoint).
// Per-worker atomic counters stay on the Worker for the benchmarks;
// these aggregate across all workers of the process.
var (
	mLocalSearches  = obs.Default().Counter("bh.vw.search.local")
	mServedSearches = obs.Default().Counter("bh.vw.search.served")
	mBruteSearches  = obs.Default().Counter("bh.vw.search.brute_force")
)

// Worker is one stateless compute node: it owns only caches; all
// durable state lives in the shared store. Killing a worker loses
// nothing but cache warmth.
type Worker struct {
	ID    string
	cache *cache.IndexCache
	vw    *VW
	// slots bounds concurrent segment scans — the worker's compute
	// capacity. Scans block here when the worker is saturated, which
	// is how adding workers raises VW throughput.
	slots chan struct{}

	alive atomic.Bool

	// Counters for the benchmarks.
	LocalSearches  atomic.Int64
	ServedSearches atomic.Int64 // searches executed on behalf of another worker
	BruteSearches  atomic.Int64
}

// newWorker wires a worker with its own local-disk tier (an isolated
// MemStore standing in for the node's SSD) over the VW's shared
// remote store.
func newWorker(id string, vw *VW, cfg cache.Config, slots int) *Worker {
	w := &Worker{
		ID:    id,
		vw:    vw,
		cache: cache.NewIndexCache(cfg, storage.NewMemStore(), vw.remote),
		slots: make(chan struct{}, slots),
	}
	w.alive.Store(true)
	return w
}

// occupy takes a compute slot (or gives up when ctx fires) and holds
// it for the simulated service time d; on success the caller owns the
// slot. Every simulated service time goes through here, so a cancelled
// query releases worker capacity promptly.
func (w *Worker) occupy(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := retry.Sleep(ctx, d); err != nil {
		<-w.slots
		return err
	}
	return nil
}

// acquire blocks until the worker has a free compute slot (or ctx
// fires) and charges the simulated per-scan service time, if
// configured.
func (w *Worker) acquire(ctx context.Context) (func(), error) {
	if err := w.occupy(ctx, w.vw.cfg.SimulatedScanCost); err != nil {
		return nil, err
	}
	return func() { <-w.slots }, nil
}

// chargePost charges the simulated per-segment post-processing time
// on this worker's capacity (see VWConfig.SimulatedPostCost).
func (w *Worker) chargePost(ctx context.Context) error {
	if c := w.vw.cfg.SimulatedPostCost; c > 0 {
		if err := w.occupy(ctx, c); err != nil {
			return err
		}
		<-w.slots
	}
	return nil
}

// Alive reports whether the worker is serving.
func (w *Worker) Alive() bool { return w.alive.Load() }

// Fail simulates a crash: the worker stops serving and loses its
// in-memory cache (the local disk tier survives, as a restarted pod's
// volume would).
func (w *Worker) Fail() {
	w.alive.Store(false)
	w.cache.PurgeMem()
}

// Recover brings a failed worker back (cold in-memory cache).
func (w *Worker) Recover() { w.alive.Store(true) }

// CacheStats exposes the hierarchical cache counters.
func (w *Worker) CacheStats() cache.HierStats { return w.cache.Stats() }

// CacheStats aggregates the hierarchical index-cache counters across
// all live and dead workers — the VW-level view that SHOW METRICS and
// the debug endpoint report.
func (vw *VW) CacheStats() cache.HierStats {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	var agg cache.HierStats
	for _, w := range vw.workers {
		s := w.cache.Stats()
		agg.MemHits += s.MemHits
		agg.DiskHits += s.DiskHits
		agg.RemoteLoads += s.RemoteLoads
		agg.Failures += s.Failures
	}
	return agg
}

// HasIndexInMem reports whether the segment's index is resident —
// the scheduler and the serving path consult this without triggering
// a load.
func (w *Worker) HasIndexInMem(table *lsm.Table, seg string) bool {
	return w.cache.ContainsMem(table.IndexKeyOf(seg))
}

// SearchSegment runs an ANN scan over one segment on this worker,
// loading the index through the hierarchical cache as needed. filter
// is offset-indexed over the segment's rows; deleted rows must
// already be cleared in it (or pass nil and handle deletes upstream).
// ctx bounds the slot wait, the simulated service time and the index
// load (nil = unbounded).
func (w *Worker) SearchSegment(ctx context.Context, table *lsm.Table, meta *storage.SegmentMeta, q []float32, k int, p index.SearchParams, filter *bitset.Bitset) ([]index.Candidate, error) {
	if !w.Alive() {
		return nil, fmt.Errorf("cluster: worker %s is down", w.ID)
	}
	release, err := w.acquire(ctx)
	if err != nil {
		return nil, err
	}
	key := table.IndexKeyOf(meta.Name)
	v, err := w.cache.Get(ctx, key, table.IndexLoaderFor(meta))
	if err != nil {
		release() // BruteForceSearch acquires its own slot
		if storage.IsNotFound(err) {
			// Segment has no index (e.g. table without INDEX clause):
			// brute-force fallback.
			return w.BruteForceSearch(ctx, table, meta, q, k, filter)
		}
		return nil, err
	}
	defer release()
	ix := v.(index.Index)
	w.LocalSearches.Add(1)
	mLocalSearches.Inc()
	return ix.SearchWithFilter(q, k, filter, p)
}

// BruteForceSearch is the fallback of paper §II-D: read the vector
// column from (remote) storage and compute exact distances. This is
// what vector search serving exists to avoid.
func (w *Worker) BruteForceSearch(ctx context.Context, table *lsm.Table, meta *storage.SegmentMeta, q []float32, k int, filter *bitset.Bitset) ([]index.Candidate, error) {
	if !w.Alive() {
		return nil, fmt.Errorf("cluster: worker %s is down", w.ID)
	}
	release, err := w.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	w.BruteSearches.Add(1)
	mBruteSearches.Inc()
	rd := &storage.SegmentReader{Store: table.Store(), Meta: meta, Schema: table.Schema()}
	vcolName := table.Options().IndexColumn
	if vcolName == "" {
		vcolName = table.Schema().VectorColumn().Name
	}
	col, err := rd.ReadColumnCtx(ctx, vcolName)
	if err != nil {
		return nil, fmt.Errorf("cluster: brute-force read of %s: %w", meta.Name, err)
	}
	metric := table.Options().IndexParams.Metric
	t := index.NewTopK(k)
	for r := 0; r < col.Len(); r++ {
		if filter != nil && !filter.Test(r) {
			continue
		}
		t.Push(index.Candidate{ID: int64(r), Dist: vec.Distance(metric, q, col.Vector(r))})
	}
	return t.Results(), nil
}

// Preload pulls the given segments' indexes through the cache tiers
// (paper §II-D "Cache-aware vector index preload"). Best-effort and
// unbounded: preload runs ahead of queries, not inside one.
func (w *Worker) Preload(table *lsm.Table, metas []*storage.SegmentMeta) []error {
	var errs []error
	for _, m := range metas {
		key := table.IndexKeyOf(m.Name)
		if _, err := w.cache.Get(context.TODO(), key, table.IndexLoaderFor(m)); err != nil {
			errs = append(errs, fmt.Errorf("preload %s: %w", m.Name, err))
		}
	}
	return errs
}

// DropIndexFromMem evicts one segment's index from memory (test and
// experiment hook for forcing cache misses).
func (w *Worker) DropIndexFromMem(table *lsm.Table, seg string) {
	w.cache.DropMem(table.IndexKeyOf(seg))
}
