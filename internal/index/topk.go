package index

import (
	"cmp"
	"slices"
	"sync"
)

// TopK maintains the k smallest candidates seen so far using a bounded
// binary max-heap ordered by (Dist, ID) — the root is the current
// worst kept candidate, so a new candidate only enters if it beats the
// root under that order. Ordering by the full (Dist, ID) key (not Dist
// alone) makes the kept SET deterministic at distance ties: among
// equal-distance candidates the smaller IDs survive, exactly matching
// SortCandidates' tie-break, so any insertion order and any
// merge/parallelism degree converge on the same k candidates.
// It is the shared top-k machinery of every index implementation and
// the exec package's partial/global top-k operators.
type TopK struct {
	k    int
	heap []Candidate // max-heap by (Dist, ID)
}

// NewTopK returns a collector for the k closest candidates. k must be
// positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 1
	}
	return &TopK{k: k, heap: make([]Candidate, 0, k)}
}

// Reset reinitializes the collector for a new search with capacity k,
// retaining the backing array — the reuse hook behind GetTopK/PutTopK.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		k = 1
	}
	t.k = k
	t.heap = t.heap[:0]
}

// candWorse reports whether a ranks strictly after b in the
// deterministic (Dist, ID) candidate order.
func candWorse(a, b Candidate) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// Push offers a candidate. It returns true if the candidate was kept.
func (t *TopK) Push(c Candidate) bool {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, c)
		t.up(len(t.heap) - 1)
		return true
	}
	if !candWorse(t.heap[0], c) {
		return false
	}
	t.heap[0] = c
	t.down(0)
	return true
}

// Worst returns the distance of the worst kept candidate, or +Inf-like
// behaviour via ok=false when fewer than k candidates are held.
func (t *TopK) Worst() (float32, bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Dist, true
}

// Len returns the number of candidates currently held.
func (t *TopK) Len() int { return len(t.heap) }

// Results extracts the kept candidates sorted ascending by distance
// (ties broken by ID for determinism). The collector is left empty and
// ownership of the returned slice passes to the caller.
func (t *TopK) Results() []Candidate {
	out := t.heap
	t.heap = nil
	SortCandidates(out)
	return out
}

// AppendResults appends the kept candidates in sorted order to dst and
// empties the collector, RETAINING the heap's backing array — the
// allocation-free alternative to Results for pooled collectors.
func (t *TopK) AppendResults(dst []Candidate) []Candidate {
	SortCandidates(t.heap)
	dst = append(dst, t.heap...)
	t.heap = t.heap[:0]
	return dst
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !candWorse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && candWorse(t.heap[l], t.heap[worst]) {
			worst = l
		}
		if r < n && candWorse(t.heap[r], t.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// topkPool recycles TopK collectors (and their heap arrays) across
// searches. Pooled collectors must not escape the search that acquired
// them: extract results with AppendResults, then PutTopK.
var topkPool = sync.Pool{New: func() any { return NewTopK(1) }}

// GetTopK returns a pooled collector reset to capacity k.
func GetTopK(k int) *TopK {
	t := topkPool.Get().(*TopK)
	t.Reset(k)
	return t
}

// PutTopK returns a collector to the pool.
func PutTopK(t *TopK) {
	if t != nil {
		topkPool.Put(t)
	}
}

// SortCandidates orders candidates ascending by distance, breaking
// ties by ID so results are deterministic across runs.
func SortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.Dist == b.Dist:
			return cmp.Compare(a.ID, b.ID)
		}
		return 0 // a NaN distance orders against nothing
	})
}

// SelectCandidates reorders cs so that cs[:n] holds the n candidates
// SortCandidates would put first, in no particular order among
// themselves: a quickselect on middle pivots, which sorts what is left
// of cs instead should it take more than 64 rounds.
func SelectCandidates(cs []Candidate, n int) {
	lo, hi := 0, len(cs)
	for round := 0; lo < n && n < hi; round++ {
		if round == 64 {
			SortCandidates(cs[lo:hi])
			return
		}
		// Lomuto partition of cs[lo:hi] around its middle element.
		mid, last := lo+(hi-lo)/2, hi-1
		cs[mid], cs[last] = cs[last], cs[mid]
		p := lo
		for i := lo; i < last; i++ {
			if candWorse(cs[last], cs[i]) {
				cs[i], cs[p] = cs[p], cs[i]
				p++
			}
		}
		cs[p], cs[last] = cs[last], cs[p]
		// cs[lo:p] rank before the pivot, now at p; cs[p+1:hi] do not.
		if p >= n {
			hi = p
		} else {
			lo = p + 1
		}
	}
}
