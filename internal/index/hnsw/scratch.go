package hnsw

import "sync"

// Per-search scratch. HNSW search state (frontier heap, result heap,
// visited marks) used to be allocated per call — with interface boxing
// on every heap push/pop, the graph traversal allocated per *node
// visited*. The heaps are now native []scored sift loops and the
// visited set is an epoch-stamped table (faiss's VisitedTable trick:
// clearing is one counter bump, not an O(n) memset), all pooled so
// steady-state search allocates only the candidates it returns. Pooled
// scratch must never escape the search — or the iterator, from open to
// Close — that borrowed it.
type searchScratch struct {
	visited    visitedTable
	candidates minHeap
	results    maxHeap
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// borrowScratch takes search state from the pool; the borrower resets
// it before each use and hands it back with searchPool.Put.
func borrowScratch() *searchScratch { return searchPool.Get().(*searchScratch) }

// reset clears the scratch for a search over a graph of n nodes.
func (s *searchScratch) reset(n int) {
	s.visited.reset(n)
	s.candidates = s.candidates[:0]
	s.results = s.results[:0]
}

// visitedTable marks visited node indices. A node is visited iff its
// tag equals the current epoch, so reset is O(1) amortized.
type visitedTable struct {
	tags  []uint32
	epoch uint32
}

func (v *visitedTable) reset(n int) {
	if cap(v.tags) < n {
		v.tags = make([]uint32, n)
		v.epoch = 0
	}
	v.tags = v.tags[:n]
	v.epoch++
	if v.epoch == 0 { // epoch wrapped: stale tags could collide, clear
		for i := range v.tags {
			v.tags[i] = 0
		}
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
