package hnsw

import (
	"slices"
	"sync"
)

// Per-search scratch. HNSW search state (frontier heap, result heap,
// visited marks) used to be allocated per call — with interface boxing
// on every heap push/pop, the graph traversal allocated per *node
// visited*. The heaps are now native []scored sift loops and the
// visited set is an epoch-stamped table (faiss's VisitedTable trick:
// clearing is one counter bump, not an O(n) memset), all pooled so
// steady-state search allocates only the candidates it returns. Pooled
// scratch must never escape the search — or the iterator, from open to
// Close — that borrowed it. The anchor (a query, or the node being
// inserted) lives here too, so preparing it allocates nothing either.
type searchScratch struct {
	q          anchor
	visited    visitedTable
	candidates minHeap
	results    maxHeap
	batch
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// borrowScratch takes search state from the pool; the borrower resets
// it before each use and hands it back with release.
func borrowScratch() *searchScratch { return searchPool.Get().(*searchScratch) }

// release returns s to the pool holding no query or stored vector.
func (s *searchScratch) release() {
	s.q = anchor{buf: s.q.buf, dec: s.q.dec}
	searchPool.Put(s)
}

// dist measures the distance from the search's anchor to node i.
func (s *searchScratch) dist(st store, i int) float32 {
	s.nodes = append(s.nodes[:0], uint32(i))
	return s.score(st, &s.q, s.nodes)[0]
}

// unvisited marks the nodes of nbrs not visited yet and scores them
// from the search's anchor as one batch: it returns those nodes, in
// list order, and their distances.
func (s *searchScratch) unvisited(st store, nbrs []uint32) ([]uint32, []float32) {
	s.nodes = s.nodes[:0]
	for _, nb := range nbrs {
		if s.visited.tryVisit(int(nb)) {
			s.nodes = append(s.nodes, nb)
		}
	}
	return s.nodes, s.score(st, &s.q, s.nodes)
}

// buildScratch is insertion's working space beyond a search: a second
// anchor for the heuristic and for pruning a neighbour, the prune's
// candidates, the heuristic's output and per-candidate rejection marks.
// Each build worker has one; the caller's is the index's own, kept
// across calls and used under the write lock.
type buildScratch struct {
	other    anchor
	cands    []scored
	selected []scored
	rejected []bool
	batch
}

// marks returns the rejection marks cleared for n candidates.
func (b *buildScratch) marks(n int) []bool {
	b.rejected = slices.Grow(b.rejected[:0], n)[:n]
	clear(b.rejected)
	return b.rejected
}

// batch holds the nodes one distance call scores and their distances.
type batch struct {
	nodes []uint32
	dists []float32
}

// score measures the distance from a to each of nodes, which may be
// b.nodes or any other list; the result is valid until the next call.
func (b *batch) score(st store, a *anchor, nodes []uint32) []float32 {
	b.dists = slices.Grow(b.dists[:0], len(nodes))[:len(nodes)]
	st.dists(a, nodes, b.dists)
	return b.dists
}

// reset clears the scratch for a search over a graph of n nodes.
func (s *searchScratch) reset(n int) {
	s.visited.reset(n)
	s.candidates = s.candidates[:0]
	s.results = s.results[:0]
}

// visitedTable marks visited node indices. A node is visited iff its
// tag equals the current epoch, so reset is O(1) amortized. Tags past
// len are stale marks of earlier epochs, never newer ones.
type visitedTable struct {
	tags  []uint32
	epoch uint32
}

func (v *visitedTable) reset(n int) {
	if cap(v.tags) < n {
		// Geometric: a row-at-a-time build searches a graph one node
		// larger per call.
		v.tags = make([]uint32, n, max(n, 2*cap(v.tags)))
		v.epoch = 0
	}
	v.tags = v.tags[:n]
	v.epoch++
	if v.epoch == 0 { // epoch wrapped: stale tags could collide, clear
		clear(v.tags[:cap(v.tags)])
		v.epoch = 1
	}
}

// grow extends the table to n nodes within the current epoch, keeping
// every mark: the iterator holds one epoch open across Next calls and
// the graph may gain nodes in between.
func (v *visitedTable) grow(n int) {
	if n > len(v.tags) {
		v.tags = append(v.tags, make([]uint32, n-len(v.tags))...)
	}
}

// tryVisit marks node i, reporting true the first time it is seen this
// epoch.
func (v *visitedTable) tryVisit(i int) bool {
	if v.tags[i] == v.epoch {
		return false
	}
	v.tags[i] = v.epoch
	return true
}
