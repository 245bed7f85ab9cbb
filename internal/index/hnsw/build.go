package hnsw

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The batch rule. A call that adds fewer than batchMinRows rows links
// one node at a time. A larger call links nodes in batches of
// min(batchMax, g/batchDiv), g the number of nodes already linked: a
// batch's nodes do not see each other, so a batch stays small against
// the graph it searches. The rule reads node counts only, never the
// worker count, so the batches — and the graph — are the same on any
// machine.
const (
	batchMinRows = 1024
	batchMax     = 64
	batchDiv     = 8
)

// worker is the working space of one build goroutine.
type worker struct {
	s *searchScratch
	b *buildScratch
}

// link connects nodes [lo, hi) to the graph of nodes [0, lo). Their
// vectors, ids and levels are in place and their slots are empty, so no
// search reaches a node before its turn.
func (ix *Index) link(lo, hi int, batched bool) {
	w := worker{s: borrowScratch(), b: &ix.build}
	defer w.s.release()
	if !batched {
		for ni := lo; ni < hi; ni++ {
			ix.linkOne(&w, ni)
		}
		return
	}
	bd := startBuilder(ix, w)
	defer bd.stop()
	for lo < hi {
		n := min(batchMax, max(1, lo/batchDiv), hi-lo)
		if n == 1 {
			ix.linkOne(&w, lo)
		} else {
			bd.batch(lo, lo+n)
		}
		lo += n
	}
}

// linkOne links node ni as a batch of one: its back-edges all join
// different lists, so each connects as it comes.
func (ix *Index) linkOne(w *worker, ni int) {
	ix.findNeighbors(w, ni)
	for l := int(ix.levels[ni]); l >= 0; l-- {
		for _, nb := range ix.neighbors(ni, l) {
			ix.connect(w.b, int(nb), ni, l)
		}
	}
	ix.promote(ni)
}

// findNeighbors searches the graph for node ni's neighbours — greedy
// descent above its level, then beam search and the heuristic on each
// layer from min(level, maxLevel) down — and writes them into ni's own
// slots. It writes nothing else.
func (ix *Index) findNeighbors(w *worker, ni int) {
	s := w.s
	level := int(ix.levels[ni])
	ix.store.node(&s.q, ni)
	ep, _ := ix.descend(s, level)
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		cands := ix.searchLayer(s, ep, l, ix.params.EfConstruction, nil)
		selected := ix.selectHeuristic(w.b, cands, ix.params.M)
		slots := ix.slots(ni, l)
		for j, c := range selected {
			slots[j] = uint32(c.node)
		}
		ix.setDegree(ni, l, len(selected))
		if len(cands) > 0 {
			ep = cands[0].node
		}
	}
}

// promote makes node ni the entry point if it tops the graph.
func (ix *Index) promote(ni int) {
	if l := int(ix.levels[ni]); l > ix.maxLevel {
		ix.entry, ix.maxLevel = ni, l
	}
}

// builder links batches of nodes on every core, in three phases:
//
//  1. In parallel, each node of the batch finds its neighbours in the
//     graph as it stood at the batch start. The batch's nodes are
//     unreachable until it ends, so each search reads only nodes linked
//     before it and writes only its own node's slots.
//  2. Serially, the back-edges (layer, target, source) of every
//     neighbour found are sorted and grouped by the list they join.
//  3. In parallel, each group connects its sources to its target in
//     ascending order. A group writes only its target's list at its
//     layer and reads no other list.
//
// No worker reads what another writes within a phase, so the graph a
// batch leaves does not depend on the worker count or the schedule.
// The entry point then moves in id order, as one node at a time would
// move it. Worker 0 is the caller; the others start once per build and
// take a token from start for each phase.
type builder struct {
	ix      *Index
	workers []worker
	start   chan struct{}
	done    sync.WaitGroup
	phase   int // findPhase or linkPhase
	lo      int // the batch's first node
	tasks   int
	next    atomic.Int64 // the phase's next task
	edges   []backEdge
	groups  []int // group g is edges[groups[g]:groups[g+1]]
}

const (
	findPhase = iota
	linkPhase
)

// backEdge adds source to target's list at layer.
type backEdge struct{ layer, target, source uint32 }

func (e backEdge) compare(f backEdge) int {
	return cmp.Or(cmp.Compare(e.layer, f.layer), cmp.Compare(e.target, f.target), cmp.Compare(e.source, f.source))
}

// startBuilder starts a worker per core beside the caller's w.
func startBuilder(ix *Index, w worker) *builder {
	n := min(runtime.GOMAXPROCS(0), batchMax)
	bd := &builder{ix: ix, workers: make([]worker, n), start: make(chan struct{}, n-1)}
	bd.workers[0] = w
	for k := 1; k < n; k++ {
		bd.workers[k] = worker{s: borrowScratch(), b: new(buildScratch)}
		go func(w *worker) {
			for range bd.start {
				bd.drain(w)
				bd.done.Done()
			}
			bd.done.Done()
		}(&bd.workers[k])
	}
	return bd
}

// stop ends the workers, waits for them to exit and returns their
// search scratch.
func (bd *builder) stop() {
	bd.done.Add(len(bd.workers) - 1)
	close(bd.start)
	bd.done.Wait()
	for _, w := range bd.workers[1:] {
		w.s.release()
	}
}

// batch links nodes [lo, hi).
func (bd *builder) batch(lo, hi int) {
	ix := bd.ix
	bd.lo = lo
	bd.run(findPhase, hi-lo)
	bd.edges = bd.edges[:0]
	for ni := lo; ni < hi; ni++ {
		for l := int(ix.levels[ni]); l >= 0; l-- {
			for _, nb := range ix.neighbors(ni, l) {
				bd.edges = append(bd.edges, backEdge{uint32(l), nb, uint32(ni)})
			}
		}
	}
	slices.SortFunc(bd.edges, backEdge.compare)
	bd.groups = bd.groups[:0]
	for i, e := range bd.edges {
		if i == 0 || e.layer != bd.edges[i-1].layer || e.target != bd.edges[i-1].target {
			bd.groups = append(bd.groups, i)
		}
	}
	bd.groups = append(bd.groups, len(bd.edges))
	bd.run(linkPhase, len(bd.groups)-1)
	for ni := lo; ni < hi; ni++ {
		ix.promote(ni)
	}
}

// run does tasks 0..n-1 of a phase on every worker and returns when
// all are done.
func (bd *builder) run(phase, n int) {
	bd.phase, bd.tasks = phase, n
	bd.next.Store(0)
	bd.done.Add(len(bd.workers) - 1)
	for range len(bd.workers) - 1 {
		bd.start <- struct{}{}
	}
	bd.drain(&bd.workers[0])
	bd.done.Wait()
}

// drain takes the phase's tasks until none is left.
func (bd *builder) drain(w *worker) {
	for {
		i := int(bd.next.Add(1)) - 1
		if i >= bd.tasks {
			return
		}
		if bd.phase == findPhase {
			bd.ix.findNeighbors(w, bd.lo+i)
			continue
		}
		for _, e := range bd.edges[bd.groups[i]:bd.groups[i+1]] {
			bd.ix.connect(w.b, int(e.target), int(e.source), int(e.layer))
		}
	}
}
