// Package hnsw implements the Hierarchical Navigable Small World graph
// index (Malkov & Yashunin) in two flavours: HNSW over raw float32
// vectors and HNSWSQ over 8-bit scalar-quantized codes (paper Table
// V/VI's BH-HNSW and BH-HNSWSQ).
//
// Unlike stock hnswlib, this implementation provides a *native
// resumable iterator* (paper §III-B: "We extend the hnswlib library to
// enable iterative-based search"): SearchIterator keeps the beam
// search frontier and visited set alive between Next calls, so the
// post-filter strategy streams ever-farther neighbors without
// restarting from scratch.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"blendhouse/internal/index"
)

func init() {
	index.Register(index.HNSW, func(p index.BuildParams) (index.Index, error) {
		return New(p, false)
	})
	index.Register(index.HNSWSQ, func(p index.BuildParams) (index.Index, error) {
		return New(p, true)
	})
}

// Index is an HNSW graph over a vector store (raw or quantized).
//
// The graph lives in flat arrays that search reads one way. Node i's
// layer-0 neighbours are nbr0[beg0[i]:end0[i]]: in a built index a slab
// of 2M slots per node (beg0[i] = i·2M, free slots behind end0[i]) that
// AddWithIDs appends to; in an index loaded from a v3 blob (frozen) the
// blob's own bytes, like ids and levels, with beg0/end0 two views of the
// wire's one offset array and no free slot — the first AddWithIDs thaws
// it, so nothing ever writes into a lent blob. A node of level L > 0
// also owns L consecutive blocks of count | M slots in upper, starting
// at upperOff[i], one per layer 1..L; always the index's own. Every
// edge at layer l points at a node of level >= l, and the entry point
// has level maxLevel — construction guarantees both and Load verifies
// them, which is what lets traversal index the arrays without per-step
// checks.
type Index struct {
	params  index.BuildParams
	store   store
	mL      float64 // level-generation multiplier 1/ln(M)
	stride0 int     // layer-0 slots per node in the owned form: 2M
	strideU int     // upper-layer block size: 1 + M

	mu sync.RWMutex
	graph
	entry    int // entry point node index; -1 when empty
	maxLevel int
	rng      *rand.Rand // level generator, seeded by the first AddWithIDs
	build    buildScratch
}

// graph is the part of an Index that Load replaces as a whole.
type graph struct {
	ids        []int64  // external ID per node
	levels     []uint32 // top layer per node
	beg0, end0 []uint32
	nbr0       []uint32
	frozen     bool     // layer 0 is the wire's CSR, not the 2M-slot slab
	upperOff   []uint32 // first upper block per node (unused at level 0)
	upper      []uint32
}

// New constructs an empty HNSW index; quantized selects the SQ8
// variant.
func New(p index.BuildParams, quantized bool) (*Index, error) {
	if p.Dim <= 0 {
		return nil, fmt.Errorf("hnsw: dimension must be positive, got %d", p.Dim)
	}
	if p.M < 2 {
		return nil, fmt.Errorf("hnsw: M must be at least 2, got %d", p.M)
	}
	ix := &Index{
		params:  p,
		mL:      1 / math.Log(float64(p.M)),
		stride0: 2 * p.M,
		strideU: 1 + p.M,
		entry:   -1,
	}
	if quantized {
		ix.store = newSQStore(p.Dim, p.Metric)
	} else {
		ix.store = newFloatStore(p.Dim, p.Metric)
	}
	return ix, nil
}

// upperBlock returns node i's block at layer l > 0: block[0] is the
// neighbor count and block[1:] the slots, of which the first count are
// live.
func (ix *Index) upperBlock(i, l int) []uint32 {
	o := int(ix.upperOff[i]) + (l-1)*ix.strideU
	return ix.upper[o : o+ix.strideU]
}

// neighbors returns node i's live adjacency at layer l.
func (ix *Index) neighbors(i, l int) []uint32 {
	if l == 0 {
		return ix.nbr0[ix.beg0[i]:ix.end0[i]]
	}
	b := ix.upperBlock(i, l)
	return b[1 : 1+b[0]]
}

// slots returns all of node i's slots at layer l (2M at layer 0, M
// above, following the original paper), live neighbors first; setDegree
// says how many are live. Both need the owned form.
func (ix *Index) slots(i, l int) []uint32 {
	if l == 0 {
		return ix.nbr0[ix.beg0[i] : int(ix.beg0[i])+ix.stride0]
	}
	return ix.upperBlock(i, l)[1:]
}

func (ix *Index) setDegree(i, l, n int) {
	if l == 0 {
		ix.end0[i] = ix.beg0[i] + uint32(n)
		return
	}
	ix.upperBlock(i, l)[0] = uint32(n)
}

// thaw re-strides a frozen layer 0 into a slab of the index's own with
// 2M slots per node and room for extra further nodes.
func (ix *Index) thaw(extra int) {
	n, w := len(ix.ids), ix.stride0
	beg0, end0 := make([]uint32, n, n+extra), make([]uint32, n, n+extra)
	nbr0 := make([]uint32, n*w, (n+extra)*w)
	for i := range beg0 {
		beg0[i] = uint32(i * w)
		end0[i] = beg0[i] + uint32(copy(nbr0[i*w:], ix.neighbors(i, 0)))
	}
	ix.beg0, ix.end0, ix.nbr0, ix.frozen = beg0, end0, nbr0, false
}

// Type returns HNSW or HNSWSQ.
func (ix *Index) Type() index.Type {
	if ix.storeKind() == kindSQ {
		return index.HNSWSQ
	}
	return index.HNSW
}

// Dim returns the vector dimension.
func (ix *Index) Dim() int { return ix.params.Dim }

// Count returns the number of indexed vectors.
func (ix *Index) Count() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ids)
}

// NeedsTrain reports whether the store requires training (SQ does).
func (ix *Index) NeedsTrain() bool { return ix.store.needsTrain() }

// Train trains the quantizer for HNSWSQ; a no-op for raw HNSW.
func (ix *Index) Train(sample []float32) error { return ix.store.train(sample) }

// MemoryBytes accounts the capacity of every array the index reads:
// vectors/codes plus the graph. Arrays borrowed from a blob count like
// owned ones — the index is what keeps that blob's bytes alive — and a
// frozen index's one offset array counts as the two it is read as.
func (ix *Index) MemoryBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	graph := 8*cap(ix.ids) + 4*(cap(ix.levels)+cap(ix.beg0)+cap(ix.end0)+cap(ix.nbr0)+cap(ix.upperOff)+cap(ix.upper))
	return ix.store.memoryBytes() + int64(graph)
}

// AddWithIDs appends the vectors as nodes, each with its level drawn in
// id order and no edges yet, then links them into the graph (link). If
// the store needs training and has not been trained, the first batch
// doubles as the training sample.
func (ix *Index) AddWithIDs(vecs []float32, ids []int64) error {
	if err := index.ValidateAdd(ix.params.Dim, vecs, ids); err != nil {
		return err
	}
	if ix.store.needsTrain() && !ix.store.trained() {
		if err := ix.store.train(vecs); err != nil {
			return fmt.Errorf("hnsw: implicit quantizer training: %w", err)
		}
	}
	dim := ix.params.Dim
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if uint64(len(ix.ids)+len(ids))*uint64(ix.stride0) > math.MaxUint32 {
		return fmt.Errorf("hnsw: %d + %d nodes overflow the layer-0 offsets", len(ix.ids), len(ids))
	}
	// A handle that only loads and searches never pays for a generator.
	if ix.rng == nil {
		ix.rng = rand.New(rand.NewSource(ix.params.Seed + 1))
	}
	if ix.frozen {
		ix.thaw(len(ids))
	}
	// Size the per-node arrays once for the call (a segment is built by
	// a single call); the upper slab takes its size from the levels.
	// Arrays a load borrowed have cap == len, so growing them is what
	// makes them the index's own.
	first := len(ix.ids)
	ix.store.grow(len(ids))
	ix.ids = append(ix.ids, ids...)
	ix.levels = slices.Grow(ix.levels, len(ids))
	ix.upperOff = slices.Grow(ix.upperOff, len(ids))
	ix.beg0 = slices.Grow(ix.beg0, len(ids))
	ix.end0 = slices.Grow(ix.end0, len(ids))
	upper := len(ix.upper)
	for i := range ids {
		level := int(-math.Log(ix.rng.Float64()) * ix.mL)
		ix.store.add(vecs[i*dim : i*dim+dim])
		ix.levels = append(ix.levels, uint32(level))
		slab := uint32(len(ix.nbr0) + i*ix.stride0)
		ix.beg0 = append(ix.beg0, slab)
		ix.end0 = append(ix.end0, slab)
		ix.upperOff = append(ix.upperOff, uint32(upper))
		upper += level * ix.strideU
	}
	ix.nbr0 = append(ix.nbr0, make([]uint32, len(ids)*ix.stride0)...)
	ix.upper = append(ix.upper, make([]uint32, upper-len(ix.upper))...)
	if ix.entry < 0 && first < len(ix.ids) {
		ix.entry, ix.maxLevel = first, int(ix.levels[first])
		first++
	}
	ix.link(first, len(ix.ids), len(ids) >= batchMinRows)
	return nil
}

// connect adds back-edge from→to at layer l, pruning with the
// heuristic when the degree cap is exceeded; from's neighbours and to
// are scored in one batch on b.
func (ix *Index) connect(b *buildScratch, from, to, l int) {
	slots := ix.slots(from, l)
	n := len(ix.neighbors(from, l))
	if n < len(slots) {
		slots[n] = uint32(to)
		ix.setDegree(from, l, n+1)
		return
	}
	b.nodes = append(append(b.nodes[:0], slots...), uint32(to))
	ix.store.node(&b.other, from)
	b.cands = b.cands[:0]
	for k, d := range b.score(ix.store, &b.other, b.nodes) {
		b.cands = append(b.cands, scored{node: int(b.nodes[k]), dist: d})
	}
	sortScored(b.cands)
	selected := ix.selectHeuristic(b, b.cands, len(slots))
	for i, s := range selected {
		slots[i] = uint32(s.node)
	}
	ix.setDegree(from, l, len(selected))
}

// scored pairs an internal node index with a distance.
type scored struct {
	node int
	dist float32
}

func sortScored(s []scored) {
	// insertion sort is fine: lists here are at most ef_construction.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].dist < s[j-1].dist || (s[j].dist == s[j-1].dist && s[j].node < s[j-1].node)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// selectHeuristic implements Malkov's SELECT-NEIGHBORS-HEURISTIC: a
// candidate is kept only if it is closer to the base point than to any
// already-kept neighbor, which spreads edges across directions. cands
// must be sorted ascending by distance. Each candidate is scored
// against the kept set four at a time — one call of the gathered
// kernel — and tested in kept order. The result lives in b until the
// next call.
func (ix *Index) selectHeuristic(b *buildScratch, cands []scored, m int) []scored {
	if len(cands) <= m {
		return cands
	}
	sel, kept, rejected := b.selected[:0], b.nodes[:0], b.marks(len(cands))
	for i, c := range cands {
		ix.store.node(&b.other, c.node)
		for j := 0; j < len(kept) && !rejected[i]; j += 4 {
			for _, d := range b.score(ix.store, &b.other, kept[j:min(j+4, len(kept))]) {
				if d < c.dist {
					rejected[i] = true
					break
				}
			}
		}
		if !rejected[i] {
			sel, kept = append(sel, c), append(kept, uint32(c.node))
			if len(sel) == m {
				break
			}
		}
	}
	// Backfill with the nearest rejected candidates if the heuristic was
	// too aggressive (keeps graphs connected on clustered data). Short
	// of m, the loop above saw every candidate.
	for i := 0; i < len(cands) && len(sel) < m; i++ {
		if rejected[i] {
			sel = append(sel, cands[i])
		}
	}
	b.nodes, b.selected = kept, sel
	return sel
}

// descend walks greedily from the entry point down to layer stop+1: on
// each layer, to the neighbour closest to s's anchor until none is
// closer. It returns the node it stops at and its distance. A node's
// neighbours are scored as one batch and then tested in list order.
func (ix *Index) descend(s *searchScratch, stop int) (int, float32) {
	ep := ix.entry
	epDist := s.dist(ix.store, ep)
	for l := ix.maxLevel; l > stop; l-- {
		for improved := true; improved; {
			improved = false
			nbrs := ix.neighbors(ep, l)
			for k, d := range s.score(ix.store, &s.q, nbrs) {
				if d < epDist {
					ep, epDist, improved = int(nbrs[k]), d, true
				}
			}
		}
	}
	return ep, epDist
}

// searchLayer is the ef-bounded best-first search at one layer from
// s's anchor. filter (over external IDs) restricts the *result* set;
// filtered-out nodes are still traversed so the graph stays navigable.
// An expanded node's unvisited neighbours are scored as one batch; the
// accept tests then run in list order, as they would one at a time,
// since no distance depends on the heaps. Runs on the caller's scratch
// (heaps + visited table) and allocates nothing: the sorted-ascending
// result is the result heap sorted in place, valid until s is used
// again or released.
func (ix *Index) searchLayer(s *searchScratch, ep, l, ef int, filter index.Filter) []scored {
	s.reset(len(ix.ids))
	candidates, results := &s.candidates, &s.results
	d0 := s.dist(ix.store, ep)
	s.visited.tryVisit(ep)
	candidates.push(scored{ep, d0})
	if filter == nil || passes(filter, ix.ids[ep]) {
		results.push(scored{ep, d0})
	}
	for len(*candidates) > 0 {
		c := candidates.pop()
		if len(*results) >= ef {
			if worst := (*results)[0].dist; c.dist > worst {
				break
			}
		}
		nodes, ds := s.unvisited(ix.store, ix.neighbors(c.node, l))
		for k, d := range ds {
			if len(*results) < ef || d < (*results)[0].dist {
				ni := int(nodes[k])
				candidates.push(scored{ni, d})
				if filter == nil || passes(filter, ix.ids[ni]) {
					results.push(scored{ni, d})
					if len(*results) > ef {
						results.pop()
					}
				}
			}
		}
	}
	// Heapsort's second half: each pop frees the slot its maximum goes to.
	out := *results
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = results.pop()
	}
	return out
}

// passes tests external id against a non-nil filter. Callers test
// filter == nil first, so an unfiltered search (every build) never
// loads the id.
func passes(filter index.Filter, id int64) bool {
	return id < int64(filter.Len()) && id >= 0 && filter.Test(int(id))
}

// SearchWithFilter runs the standard HNSW query: greedy descent to
// layer 0, then an ef-bounded beam search honoring the filter.
func (ix *Index) SearchWithFilter(q []float32, k int, filter index.Filter, p index.SearchParams) ([]index.Candidate, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("hnsw: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	p = p.WithDefaults(k)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.entry < 0 {
		return nil, nil
	}
	s := borrowScratch()
	defer s.release()
	ix.store.query(&s.q, q)
	ep, _ := ix.descend(s, 0)
	res := ix.searchLayer(s, ep, 0, p.Ef, filter)
	if len(res) > k {
		res = res[:k]
	}
	out := make([]index.Candidate, len(res))
	for i, s := range res {
		out[i] = index.Candidate{ID: ix.ids[s.node], Dist: s.dist}
	}
	return out, nil
}

// SearchWithRange reuses the beam search with ef widened until the
// frontier distance exceeds the radius, then keeps in-range results.
func (ix *Index) SearchWithRange(q []float32, radius float32, filter index.Filter, p index.SearchParams) ([]index.Candidate, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("hnsw: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	p = p.WithDefaults(16)
	ix.mu.RLock()
	n := len(ix.ids)
	ix.mu.RUnlock()
	// Iteratively widen ef until the worst in-beam result is beyond the
	// radius (meaning the ball is fully enumerated) or we scanned all.
	ef := p.Ef
	s := borrowScratch()
	defer s.release()
	for {
		ix.mu.RLock()
		if ix.entry < 0 {
			ix.mu.RUnlock()
			return nil, nil
		}
		ix.store.query(&s.q, q)
		ep, _ := ix.descend(s, 0)
		res := ix.searchLayer(s, ep, 0, ef, filter)
		ix.mu.RUnlock()
		if len(res) < ef || res[len(res)-1].dist > radius || ef >= n {
			var out []index.Candidate
			for _, s := range res {
				if s.dist <= radius {
					out = append(out, index.Candidate{ID: ix.ids[s.node], Dist: s.dist})
				}
			}
			return out, nil
		}
		ef *= 2
	}
}

// SearchIterator returns the native resumable iterator. The iterator
// keeps the frontier and visited set alive between Next calls and
// emits through a lookahead buffer: before releasing a candidate it
// expands Ef further frontier nodes, so the head of the stream has
// beam-search quality (Ef tunes iterator accuracy exactly as it tunes
// SearchWithFilter) while later batches stream incrementally without
// restarting. The frontier heap and visited table are borrowed from
// the search pool and handed back by Close; an iterator that is never
// closed just leaves them to the garbage collector.
func (ix *Index) SearchIterator(q []float32, p index.SearchParams) (index.Iterator, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("hnsw: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	p = p.WithDefaults(16)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	it := &iterator{ix: ix, lookahead: p.Ef}
	if ix.entry < 0 {
		return it, nil
	}
	it.s = borrowScratch()
	ix.store.query(&it.s.q, q)
	ep, epDist := ix.descend(it.s, 0)
	it.s.reset(len(ix.ids))
	it.s.visited.tryVisit(ep)
	it.s.candidates.push(scored{ep, epDist})
	return it, nil
}

// iterator implements best-first traversal of layer 0 as a stream with
// an Ef-sized lookahead buffer.
type iterator struct {
	ix        *Index
	s         *searchScratch    // anchor, frontier, visited; nil for an empty index and after Close
	buf       []index.Candidate // expanded but not yet emitted, sorted
	lookahead int
}

// Next returns up to n further candidates in ascending distance order
// within the lookahead horizon.
func (it *iterator) Next(n int) ([]index.Candidate, error) {
	if n <= 0 {
		return nil, nil
	}
	if s := it.s; s != nil {
		ix := it.ix
		ix.mu.RLock()
		// Nodes added since the iterator opened are reachable through
		// new back-edges; make room to mark them.
		s.visited.grow(len(ix.ids))
		if it.buf == nil {
			it.buf = make([]index.Candidate, 0, n+it.lookahead)
		}
		// Expand until the buffer holds n emittable candidates plus the
		// lookahead margin (or the graph is exhausted).
		for len(it.buf) < n+it.lookahead && len(s.candidates) > 0 {
			c := s.candidates.pop()
			it.buf = append(it.buf, index.Candidate{ID: ix.ids[c.node], Dist: c.dist})
			nodes, ds := s.unvisited(ix.store, ix.neighbors(c.node, 0))
			for k, d := range ds {
				s.candidates.push(scored{int(nodes[k]), d})
			}
		}
		ix.mu.RUnlock()
		index.SortCandidates(it.buf)
	}
	take := n
	if take > len(it.buf) {
		take = len(it.buf)
	}
	out := it.buf[:take:take]
	it.buf = it.buf[take:]
	return out, nil
}

// Close returns the borrowed scratch to the pool and ends the stream.
func (it *iterator) Close() error {
	if it.s != nil {
		it.s.release()
		it.s = nil
	}
	it.buf = nil
	return nil
}

// minHeap orders scored ascending by distance (frontier). Native sift
// loops, no container/heap: the interface boxing there allocated per
// push, which made graph traversal allocate per node visited.
type minHeap []scored

func (h *minHeap) push(s scored) {
	*h = append(*h, s)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].dist <= a[i].dist {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *minHeap) pop() scored {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a[r].dist < a[l].dist {
			m = r
		}
		if a[i].dist <= a[m].dist {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// maxHeap orders scored descending by distance (result set, worst on
// top).
type maxHeap []scored

func (h *maxHeap) push(s scored) {
	*h = append(*h, s)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].dist >= a[i].dist {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *maxHeap) pop() scored {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a[r].dist > a[l].dist {
			m = r
		}
		if a[i].dist >= a[m].dist {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}
