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
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/blobtier"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
	"blendhouse/internal/storage"
)

// VW-wide search counters (SHOW METRICS / the -debug-addr endpoint).
// Per-worker atomic counters stay on the Worker for the benchmarks;
// these aggregate across all workers of the process.
var (
	mLocalSearches  = obs.Default().Counter("bh.vw.search.local")
	mServedSearches = obs.Default().Counter("bh.vw.search.served")
	mBruteSearches  = obs.Default().Counter("bh.vw.search.brute_force")
)

// A worker models a node of fixed size: workerSlots concurrent segment
// scans, an lsm.IndexCache of decoded indexes in memory, and a blob
// tier of tierMemBytes in memory over tierDiskBytes of local disk.
const (
	workerSlots   = 2
	tierMemBytes  = 256 << 20
	tierDiskBytes = 4 << 30
)

// Worker is one stateless compute node: it owns only caches; all
// durable state lives in the shared store. Killing a worker loses
// nothing but cache warmth.
type Worker struct {
	ID string
	vw *VW
	// tier reads index blobs: memory, then the node's local disk, then
	// the VW's remote store. indexes holds the decoded ones.
	tier    *blobtier.TieredStore
	indexes *lsm.IndexCache
	// slots bounds concurrent segment scans — the worker's compute
	// capacity. Scans block here when the worker is saturated, which
	// is how adding workers raises VW throughput.
	slots chan struct{}

	alive atomic.Bool

	// The serving RPC's listener and its accept loop (closed when the
	// loop exits), and the client other workers reach this one
	// through, dialled on first use.
	ln        net.Listener
	accepting chan struct{}
	clientMu  sync.Mutex
	client    *rpc.Client

	// Counters for the benchmarks: scans run on behalf of another
	// worker, and scans of a segment without an index blob.
	ServedSearches atomic.Int64
	BruteSearches  atomic.Int64
}

// newWorker wires a worker with its own local disk (an isolated
// MemStore standing in for the node's SSD) under a blob tier over the
// VW's shared remote store, and opens its serving listener.
func newWorker(id string, vw *VW) (*Worker, error) {
	tier, err := blobtier.NewTiered(vw.remote, blobtier.Config{
		MemBytes: tierMemBytes, DiskBytes: tierDiskBytes, DiskStore: storage.NewMemStore(),
	})
	if err != nil {
		return nil, err
	}
	w := &Worker{
		ID:      id,
		vw:      vw,
		tier:    tier,
		indexes: lsm.NewIndexCache(tier),
		slots:   make(chan struct{}, workerSlots),
	}
	if err := w.listen(); err != nil {
		return nil, err
	}
	w.alive.Store(true)
	return w, nil
}

// occupy takes a compute slot (or gives up when ctx fires) and holds
// it for the simulated service time d; on success the caller owns the
// slot. Every simulated service time goes through here, so a cancelled
// query releases worker capacity promptly.
func (w *Worker) occupy(ctx context.Context, d time.Duration) error {
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

// chargePost charges the simulated per-segment post-processing time
// on this worker's capacity (see VWConfig.SimulatedPostCost); a fired
// ctx cuts it short.
func (w *Worker) chargePost(ctx context.Context) {
	if c := w.vw.cfg.SimulatedPostCost; c > 0 && w.occupy(ctx, c) == nil {
		<-w.slots
	}
}

// Alive reports whether the worker is serving.
func (w *Worker) Alive() bool { return w.alive.Load() }

// Fail simulates a crash: the worker stops serving and loses its
// decoded indexes (the blob tier survives, as a restarted pod's volume
// would).
func (w *Worker) Fail() {
	w.alive.Store(false)
	w.indexes.Purge()
}

// Recover brings a failed worker back (cold in-memory cache).
func (w *Worker) Recover() { w.alive.Store(true) }

// HasIndexInMem reports whether the segment's index is at hand — the
// serving path consults this without triggering a load.
func (w *Worker) HasIndexInMem(table *lsm.Table, seg *lsm.Segment) bool {
	_, ok := w.indexes.Get(table, seg.Meta.Name)
	return seg.Index != nil || ok
}

// searcher is the worker's searcher for t's segment s
// (lsm.IndexCache.Searcher); an exact scan counts in BruteSearches.
func (w *Worker) searcher(ctx context.Context, t *lsm.Table, s *lsm.Segment) (index.Index, error) {
	ix, brute, err := w.indexes.Searcher(ctx, t, s)
	if brute {
		w.BruteSearches.Add(1)
		mBruteSearches.Inc()
	} else if err == nil {
		mLocalSearches.Inc()
	}
	return ix, err
}

// Preload pulls the given segments' indexes through the cache tiers
// (paper §II-D "Cache-aware vector index preload"). Best-effort and
// unbounded: preload runs ahead of queries, not inside one.
func (w *Worker) Preload(table *lsm.Table, segs []*lsm.Segment) []error {
	var errs []error
	for _, seg := range segs {
		if _, err := w.indexes.Index(context.Background(), table, seg); err != nil {
			errs = append(errs, fmt.Errorf("preload %s: %w", seg.Meta.Name, err))
		}
	}
	return errs
}
