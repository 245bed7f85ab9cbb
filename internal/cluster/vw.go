package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/cache"
	"blendhouse/internal/hashring"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// VWConfig configures a virtual warehouse.
type VWConfig struct {
	Name string
	// Cache sizes each worker's hierarchical cache.
	Cache cache.Config
	// Serving enables the vector-search-serving RPC: a worker that
	// lacks a segment's index proxies the scan to the segment's
	// previous owner instead of brute-forcing (paper §II-D).
	Serving bool
	// Replicas is the number of candidate workers per segment used
	// for fault-tolerant retry (>=1).
	Replicas int
	// WorkerSlots caps concurrent segment scans per worker — each
	// worker models a node with fixed compute capacity, which is what
	// makes VW scaling raise aggregate throughput (default 2).
	WorkerSlots int
	// SimulatedScanCost, when positive, charges each ANN scan a fixed
	// service time while it holds a slot on the worker whose index
	// cache executes it. On a single-core host the real CPU is shared
	// by all "workers", so aggregate throughput cannot scale with
	// worker count; this knob gives each worker its own (virtual)
	// capacity for the elasticity experiments. Zero (the default)
	// disables it — every other experiment measures real work.
	SimulatedScanCost time.Duration
	// SimulatedPostCost charges the per-segment post-processing work
	// (column fetch, filtering, partial merge) on the *assigned*
	// worker. The paper's serving argument rests on this split: "ANN
	// scan is a lightweight operator compared with the end-to-end
	// query running cost", so a cold worker that proxies only its ANN
	// scans still contributes most of its capacity. Zero disables.
	SimulatedPostCost time.Duration
}

func (c VWConfig) withDefaults() VWConfig {
	if c.Cache == (cache.Config{}) {
		c.Cache = cache.DefaultConfig()
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = 2
	}
	return c
}

// VW is a virtual warehouse: an elastic group of stateless workers
// sharing one remote store. Search scheduling, pruning, serving and
// retry all live here.
type VW struct {
	cfg    VWConfig
	remote storage.BlobStore

	mu            sync.RWMutex
	workers       map[string]*Worker
	ring          *hashring.Ring
	prevAssign    map[string]string // segment key -> owner before the last topology change
	knownSegments map[string]bool   // every segment key ever scheduled
	serving       ServingConfig
	endpoints     map[string]*rpcEndpoint
	tables        map[string]*lsm.Table
}

// NewVW creates an empty virtual warehouse over the shared store.
func NewVW(cfg VWConfig, remote storage.BlobStore) *VW {
	return &VW{
		cfg:           cfg.withDefaults(),
		remote:        remote,
		workers:       map[string]*Worker{},
		ring:          hashring.New(0),
		prevAssign:    map[string]string{},
		knownSegments: map[string]bool{},
	}
}

// Name returns the VW name.
func (vw *VW) Name() string { return vw.cfg.Name }

// Workers returns the live worker IDs, sorted.
func (vw *VW) Workers() []string {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	out := make([]string, 0, len(vw.workers))
	for id := range vw.workers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Worker returns a worker by ID (nil if absent).
func (vw *VW) Worker(id string) *Worker {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	return vw.workers[id]
}

// AddWorker scales the VW up. Before changing the ring it snapshots
// the current assignment of every known segment so the serving path
// can find each segment's previous owner.
func (vw *VW) AddWorker(id string) (*Worker, error) {
	vw.mu.Lock()
	defer vw.mu.Unlock()
	if _, dup := vw.workers[id]; dup {
		return nil, fmt.Errorf("cluster: worker %q already in VW %s", id, vw.cfg.Name)
	}
	vw.snapshotAssignLocked()
	w := newWorker(id, vw, vw.cfg.Cache, vw.cfg.WorkerSlots)
	vw.workers[id] = w
	vw.ring.Add(id)
	return w, nil
}

// RemoveWorker scales the VW down.
func (vw *VW) RemoveWorker(id string) error {
	vw.mu.Lock()
	defer vw.mu.Unlock()
	if _, ok := vw.workers[id]; !ok {
		return fmt.Errorf("cluster: worker %q not in VW %s", id, vw.cfg.Name)
	}
	vw.snapshotAssignLocked()
	delete(vw.workers, id)
	vw.ring.Remove(id)
	return nil
}

// snapshotAssignLocked records the pre-change owner of every segment
// key currently resident in any worker's memory. It deliberately
// over-records (all keys ever assigned): stale entries are validated
// against actual cache residency at serving time.
func (vw *VW) snapshotAssignLocked() {
	if vw.ring.Len() == 0 {
		return
	}
	for key := range vw.knownSegments {
		vw.prevAssign[key] = vw.ring.Get(key)
	}
}

// rememberSegmentLocked records a segment key for future pre-scale
// snapshots. Caller holds mu.
func (vw *VW) rememberSegmentLocked(key string) {
	vw.knownSegments[key] = true
}

// ScheduleSegments maps segments to live workers via the ring.
// Segments owned by dead workers fall over to the next replica.
func (vw *VW) ScheduleSegments(table *lsm.Table, metas []*storage.SegmentMeta) map[string][]*storage.SegmentMeta {
	vw.mu.Lock()
	for _, m := range metas {
		vw.rememberSegmentLocked(segKey(table, m.Name))
	}
	vw.mu.Unlock()

	out := map[string][]*storage.SegmentMeta{}
	for _, m := range metas {
		id := vw.ownerOf(table, m.Name)
		if id == "" {
			continue
		}
		out[id] = append(out[id], m)
	}
	return out
}

// ownerOf returns the live worker responsible for a segment,
// consulting replicas when the primary is down.
func (vw *VW) ownerOf(table *lsm.Table, seg string) string {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	for _, id := range vw.ring.GetN(segKey(table, seg), vw.cfg.Replicas) {
		if w := vw.workers[id]; w != nil && w.Alive() {
			return id
		}
	}
	// All replicas down: any live worker (stateless, so correct,
	// just cold).
	for id, w := range vw.workers {
		if w.Alive() {
			return id
		}
	}
	return ""
}

func segKey(table *lsm.Table, seg string) string {
	return table.Name() + "/" + seg
}

// PreviousOwner returns the worker that owned the segment before the
// last topology change ("" when unknown or unchanged).
func (vw *VW) PreviousOwner(table *lsm.Table, seg string) string {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	return vw.prevAssign[segKey(table, seg)]
}

// SearchOptions tunes a distributed search.
type SearchOptions struct {
	Params index.SearchParams
	// Filters maps segment name to the offset bitset of rows passing
	// scalar predicates (nil entry or missing key = unfiltered).
	Filters map[string]*bitset.Bitset
	// DisableServing forces local execution even on cache miss
	// (ablation knob for the Fig 11/18 experiments).
	DisableServing bool
	// ForceBruteForce skips the index entirely (Fig 11's worst case).
	ForceBruteForce bool
}

// Search runs a distributed top-k over the given segments: schedule,
// per-segment ANN scan (local, served, or brute-force), global merge.
// Failed workers are retried on replicas (query-level retry, §II-E).
// ctx bounds every leg of the fan-out — slot waits, simulated service
// times, index loads and serving RPC waits; cancelling it stops
// pending per-segment scans before they start.
func (vw *VW) Search(ctx context.Context, table *lsm.Table, metas []*storage.SegmentMeta, q []float32, k int, opts SearchOptions) ([]SegmentCandidate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	assign := vw.ScheduleSegments(table, metas)
	assigned := 0
	for _, segs := range assign {
		assigned += len(segs)
	}
	if assigned < len(metas) {
		return nil, fmt.Errorf("cluster: %d of %d segments unassignable (no live workers in VW %s)",
			len(metas)-assigned, len(metas), vw.cfg.Name)
	}
	// Per-query cancel: the first failing worker goroutine stops the
	// rest of the fan-out instead of letting it run to completion.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		cands []SegmentCandidate
		err   error
	}
	ch := make(chan result, len(assign))
	jobs := 0
	for workerID, segs := range assign {
		workerID, segs := workerID, segs
		jobs++
		go func() {
			var all []SegmentCandidate
			for _, m := range segs {
				if err := gctx.Err(); err != nil {
					ch <- result{nil, err}
					return
				}
				cands, err := vw.searchOneWithRetry(gctx, table, m, workerID, q, k, opts)
				if err != nil {
					ch <- result{nil, err}
					return
				}
				for _, c := range cands {
					all = append(all, SegmentCandidate{Segment: m.Name, Offset: c.ID, Dist: c.Dist})
				}
			}
			ch <- result{all, nil}
		}()
	}
	var merged []SegmentCandidate
	var firstErr error
	for i := 0; i < jobs; i++ {
		r := <-ch
		if r.err != nil {
			// Prefer a root-cause error over cancellations induced by
			// our own cancel() below.
			if firstErr == nil || (isCtxErr(firstErr) && ctx.Err() == nil && !isCtxErr(r.err)) {
				firstErr = r.err
			}
			cancel()
		}
		merged = append(merged, r.cands...)
	}
	if firstErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	sortSegmentCandidates(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, nil
}

// SegmentCandidate is a search hit qualified by its segment.
type SegmentCandidate struct {
	Segment string
	Offset  int64
	Dist    float32
}

// isCtxErr reports whether err is a context cancellation/deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func sortSegmentCandidates(cs []SegmentCandidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Dist != cs[j].Dist {
			return cs[i].Dist < cs[j].Dist
		}
		if cs[i].Segment != cs[j].Segment {
			return cs[i].Segment < cs[j].Segment
		}
		return cs[i].Offset < cs[j].Offset
	})
}

// searchOneWithRetry searches one segment on the designated worker,
// applying the serving path on cache miss and retrying on a replica
// if the worker dies mid-query.
func (vw *VW) searchOneWithRetry(ctx context.Context, table *lsm.Table, m *storage.SegmentMeta, workerID string, q []float32, k int, opts SearchOptions) ([]index.Candidate, error) {
	filter := opts.Filters[m.Name]
	tryWorker := func(id string) ([]index.Candidate, error) {
		w := vw.Worker(id)
		if w == nil || !w.Alive() {
			return nil, fmt.Errorf("cluster: worker %s unavailable", id)
		}
		if opts.ForceBruteForce {
			return w.BruteForceSearch(ctx, table, m, q, k, filter)
		}
		// Vector search serving: if this worker lacks the index in
		// memory, proxy to the previous owner that still has it warm.
		if vw.cfg.Serving && !opts.DisableServing && !w.HasIndexInMem(table, m.Name) {
			if prev := vw.PreviousOwner(table, m.Name); prev != "" && prev != id {
				if pw := vw.Worker(prev); pw != nil && pw.Alive() && pw.HasIndexInMem(table, m.Name) {
					rpcStart := obs.Now()
					res, err := vw.serve(ctx, pw, table, m, q, k, opts.Params, filter)
					mServingRTT.Observe(time.Since(rpcStart))
					return res, err
				}
			}
		}
		return w.SearchSegment(ctx, table, m, q, k, opts.Params, filter)
	}
	res, err := tryWorker(workerID)
	if err == nil {
		// Post-processing (fetch/filter/merge) runs on the assigned
		// worker regardless of where the ANN scan executed.
		if w := vw.Worker(workerID); w != nil {
			if perr := w.chargePost(ctx); perr != nil {
				return nil, perr
			}
		}
		return res, nil
	}
	// A cancelled/timed-out query must not fail over: the replicas
	// would just re-observe the same dead context.
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	// Query-level retry on replicas (paper §II-E).
	for _, id := range vw.replicasFor(table, m.Name) {
		if id == workerID {
			continue
		}
		if res, rerr := tryWorker(id); rerr == nil {
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	return nil, err
}

func (vw *VW) replicasFor(table *lsm.Table, seg string) []string {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	return vw.ring.GetN(segKey(table, seg), vw.cfg.Replicas)
}

// Preload warms every worker's cache with the indexes of the segments
// the ring assigns to it — the same consistent hashing the query
// scheduler uses, so preload and scheduling agree (paper §II-D).
func (vw *VW) Preload(table *lsm.Table) []error {
	assign := vw.ScheduleSegments(table, table.Segments())
	var errs []error
	for workerID, segs := range assign {
		if w := vw.Worker(workerID); w != nil {
			errs = append(errs, w.Preload(table, segs)...)
		}
	}
	return errs
}
