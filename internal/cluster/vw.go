package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/hashring"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// VWConfig configures a virtual warehouse.
type VWConfig struct {
	Name string
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

// replicas is the number of candidate workers per segment that
// query-level retry tries (paper §II-E).
const replicas = 2

// VW is a virtual warehouse: an elastic group of stateless workers
// sharing one remote store. Search scheduling, serving and retry all
// live here.
type VW struct {
	cfg    VWConfig
	remote storage.BlobStore

	mu       sync.RWMutex
	workers  map[string]*Worker
	ring     *hashring.Ring
	prevRing *hashring.Ring // ring before the last topology change
	tables   map[string]*lsm.Table
}

// NewVW creates an empty virtual warehouse over the shared store.
func NewVW(cfg VWConfig, remote storage.BlobStore) *VW {
	return &VW{
		cfg:      cfg,
		remote:   remote,
		workers:  map[string]*Worker{},
		ring:     hashring.New(),
		prevRing: hashring.New(),
		tables:   map[string]*lsm.Table{},
	}
}

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

// AddWorker scales the VW up and opens the new worker's serving
// listener. The ring before the change is kept, so the serving path
// can find each segment's previous owner.
func (vw *VW) AddWorker(id string) (*Worker, error) {
	vw.mu.Lock()
	defer vw.mu.Unlock()
	if _, dup := vw.workers[id]; dup {
		return nil, fmt.Errorf("cluster: worker %q already in VW %s", id, vw.cfg.Name)
	}
	w, err := newWorker(id, vw)
	if err != nil {
		return nil, err
	}
	vw.prevRing = vw.ring.Clone()
	vw.workers[id] = w
	vw.ring.Add(id)
	return w, nil
}

// RemoveWorker scales the VW down and closes the worker's listener.
func (vw *VW) RemoveWorker(id string) error {
	vw.mu.Lock()
	w, ok := vw.workers[id]
	if !ok {
		vw.mu.Unlock()
		return fmt.Errorf("cluster: worker %q not in VW %s", id, vw.cfg.Name)
	}
	vw.prevRing = vw.ring.Clone()
	delete(vw.workers, id)
	vw.ring.Remove(id)
	vw.mu.Unlock()
	w.closeRPC()
	return nil
}

// Close closes every worker's serving listener and client.
func (vw *VW) Close() {
	for _, id := range vw.Workers() {
		if w := vw.Worker(id); w != nil {
			w.closeRPC()
		}
	}
}

// ScheduleSegments maps segments to live workers via the ring.
// Segments owned by dead workers fall over to the next replica.
func (vw *VW) ScheduleSegments(table *lsm.Table, segs []*lsm.Segment) map[string][]*lsm.Segment {
	out := map[string][]*lsm.Segment{}
	for _, seg := range segs {
		id := vw.ownerOf(table, seg.Meta.Name)
		if id == "" {
			continue
		}
		out[id] = append(out[id], seg)
	}
	return out
}

// ownerOf returns the live worker responsible for a segment,
// consulting replicas when the primary is down.
func (vw *VW) ownerOf(table *lsm.Table, seg string) string {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	for _, id := range vw.ring.GetN(segKey(table, seg), replicas) {
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

// PreviousOwner returns the worker the ring assigned the segment to
// before the last topology change ("" before the first). The serving
// path checks that worker's cache before proxying to it.
func (vw *VW) PreviousOwner(table *lsm.Table, seg string) string {
	vw.mu.RLock()
	defer vw.mu.RUnlock()
	return vw.prevRing.Get(segKey(table, seg))
}

// SearchOptions tunes a distributed search.
type SearchOptions struct {
	Params index.SearchParams
	// ForceBruteForce skips the index entirely (Fig 11's worst case).
	ForceBruteForce bool
}

// Search runs a distributed top-k over the table's current Version:
// schedule its segments, scan each (local, served, or brute-force)
// over its live rows, merge. Failed workers are retried on replicas
// (query-level retry, §II-E). ctx bounds every leg of the fan-out —
// slot waits, simulated service times, index loads and serving RPC
// waits; cancelling it stops pending per-segment scans before they
// start.
func (vw *VW) Search(ctx context.Context, table *lsm.Table, q []float32, k int, opts SearchOptions) ([]SegmentCandidate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, segs := table.Acquire()
	defer v.Release()
	assign := vw.ScheduleSegments(table, segs)
	assigned := 0
	for _, ss := range assign {
		assigned += len(ss)
	}
	if assigned < len(segs) {
		return nil, fmt.Errorf("cluster: %d of %d segments unassignable (no live workers in VW %s)",
			len(segs)-assigned, len(segs), vw.cfg.Name)
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
	for workerID, ss := range assign {
		go func() {
			var all []SegmentCandidate
			for _, seg := range ss {
				if err := gctx.Err(); err != nil {
					ch <- result{nil, err}
					return
				}
				cands, err := vw.searchOneWithRetry(gctx, table, seg, workerID, q, k, opts)
				if err != nil {
					ch <- result{nil, err}
					return
				}
				for _, c := range cands {
					all = append(all, SegmentCandidate{Segment: seg.Meta.Name, Offset: c.ID, Dist: c.Dist})
				}
			}
			ch <- result{all, nil}
		}()
	}
	var merged []SegmentCandidate
	var firstErr error
	for range assign {
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

// liveRows is the allow bitset of a segment's rows that no delete
// removed, nil when none is deleted.
func liveRows(seg *lsm.Segment) *bitset.Bitset {
	if seg.Deletes == nil {
		return nil
	}
	allow := bitset.NewFull(seg.Meta.Rows)
	allow.AndNot(seg.Deletes)
	return allow
}

// searchOneWithRetry searches one segment on the designated worker,
// applying the serving path on cache miss and retrying on a replica
// if the worker dies mid-query.
func (vw *VW) searchOneWithRetry(ctx context.Context, table *lsm.Table, seg *lsm.Segment, workerID string, q []float32, k int, opts SearchOptions) ([]index.Candidate, error) {
	allow := liveRows(seg)
	tryWorker := func(id string) ([]index.Candidate, error) {
		w := vw.Worker(id)
		if w == nil || !w.Alive() {
			return nil, fmt.Errorf("cluster: worker %s unavailable", id)
		}
		// Vector search serving: if this worker lacks the index in
		// memory, proxy to the previous owner that still has it warm.
		if !opts.ForceBruteForce && !w.HasIndexInMem(table, seg) {
			if prev := vw.PreviousOwner(table, seg.Meta.Name); prev != "" && prev != id {
				if pw := vw.Worker(prev); pw != nil && pw.Alive() && pw.HasIndexInMem(table, seg) {
					rpcStart := obs.Now()
					res, err := vw.serve(ctx, pw, table, seg, q, k, opts.Params, allow)
					mServingRTT.Observe(time.Since(rpcStart))
					return res, err
				}
			}
		}
		return w.SearchSegment(ctx, table, seg, q, k, opts.Params, allow, opts.ForceBruteForce)
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
	for _, id := range vw.replicasFor(table, seg.Meta.Name) {
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
	return vw.ring.GetN(segKey(table, seg), replicas)
}

// Preload warms every worker's cache with the indexes of the segments
// the ring assigns to it — the same consistent hashing the query
// scheduler uses, so preload and scheduling agree (paper §II-D).
func (vw *VW) Preload(table *lsm.Table) []error {
	v, segs := table.Acquire()
	defer v.Release()
	var errs []error
	for workerID, ss := range vw.ScheduleSegments(table, segs) {
		if w := vw.Worker(workerID); w != nil {
			errs = append(errs, w.Preload(table, ss)...)
		}
	}
	return errs
}
