package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"blendhouse/internal/hashring"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
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

// replicas is the number of ring candidates per segment a scan tries
// in order before any live worker (query-level retry, paper §II-E).
const replicas = 2

// VW is a virtual warehouse: an elastic group of stateless workers
// sharing one remote store, and a placement of the engine's executor
// (exec.Placement): segment scheduling, serving and failover live here;
// the query pipeline is exec's.
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
	w.indexes.Purge() // the worker's cache leaves every table's list
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
// consulting replicas when the primary is down ("" when none is live).
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

// Occupy places the scan of t's segment s (exec.Placement) on its ring
// owner, or on the next replica when the owner is down. The owner holds
// a slot for SimulatedScanCost and searches its IndexCache handle, or
// the exact scan of s's vector column when s has no index blob. When
// the owner is cold and the previous owner warm, the previous owner
// serves the scan over the RPC instead, in its own slot (vector search
// serving, §II-D). The release charges SimulatedPostCost on the owner:
// post-processing runs there wherever the scan ran.
func (vw *VW) Occupy(ctx context.Context, t *lsm.Table, s *lsm.Segment, exact bool) (index.Searcher, func(), error) {
	w := vw.Worker(vw.ownerOf(t, s.Meta.Name))
	if w == nil {
		return nil, nil, fmt.Errorf("cluster: no live worker in VW %s for segment %s", vw.cfg.Name, s.Meta.Name)
	}
	post := func() { w.chargePost(ctx) }
	if !exact && !w.HasIndexInMem(t, s) {
		if prev := vw.PreviousOwner(t, s.Meta.Name); prev != w.ID {
			if pw := vw.Worker(prev); pw != nil && pw.Alive() && pw.HasIndexInMem(t, s) {
				return &served{ctx: ctx, vw: vw, prev: pw, owner: w, t: t, s: s}, post, nil
			}
		}
	}
	if err := w.occupy(ctx, vw.cfg.SimulatedScanCost); err != nil {
		return nil, nil, err
	}
	release := func() {
		<-w.slots
		post()
	}
	if exact {
		return nil, release, nil
	}
	ix, err := w.searcher(ctx, t, s)
	if err != nil {
		release()
		return nil, nil, err
	}
	return ix, release, nil
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
