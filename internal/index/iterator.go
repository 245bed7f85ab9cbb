package index

// RestartIterator is the generic iterator of paper §III-B: for index
// types without native incremental search it wraps the standard top-k
// interface, restarting the ANN search from scratch with k doubling on
// each refill. Already-emitted IDs are tracked in a set, so the
// iterator stays correct even when the underlying search is not
// prefix-stable across k (e.g. when a refine stage re-ranks a k-sized
// candidate pool). The paper notes the redundant search overhead this
// restart scheme incurs — that overhead is exactly what the native
// HNSW iterator avoids, and the abl-iterator ablation bench measures
// the gap.
type RestartIterator struct {
	idx    Searcher
	q      []float32
	p      SearchParams
	k      int // k used for the next refill
	seen   map[int64]bool
	buf    []Candidate
	done   bool
	closed bool
}

// NewRestartIterator wraps idx with restart-with-doubling semantics.
// initialK sizes the first underlying search (the engine passes the
// query's LIMIT).
func NewRestartIterator(idx Searcher, q []float32, initialK int, p SearchParams) *RestartIterator {
	if initialK <= 0 {
		initialK = 16
	}
	return &RestartIterator{idx: idx, q: q, p: p, k: initialK, seen: map[int64]bool{}}
}

// Next returns up to n further candidates in ascending distance order
// within each refill batch.
func (it *RestartIterator) Next(n int) ([]Candidate, error) {
	if it.closed || n <= 0 {
		return nil, nil
	}
	for len(it.buf) < n && !it.done {
		need := len(it.seen) + n
		for it.k < need {
			it.k *= 2
		}
		res, err := it.idx.SearchWithFilter(it.q, it.k, nil, it.p)
		if err != nil {
			return nil, err
		}
		fresh := 0
		for _, c := range res {
			if it.seen[c.ID] {
				continue
			}
			it.seen[c.ID] = true
			it.buf = append(it.buf, c)
			fresh++
		}
		if len(res) < it.k || fresh == 0 {
			// Index exhausted, or the search cannot surface anything new
			// (every result already emitted) — stop rather than spin.
			if len(res) < it.k {
				it.done = true
			} else if fresh == 0 {
				it.k *= 2
				if it.k > 4*it.idx.Count() && it.idx.Count() > 0 {
					it.done = true
				}
				continue
			}
		} else {
			it.k *= 2
		}
	}
	take := n
	if take > len(it.buf) {
		take = len(it.buf)
	}
	out := it.buf[:take:take]
	it.buf = it.buf[take:]
	return out, nil
}

// Close releases the iterator.
func (it *RestartIterator) Close() error {
	it.closed = true
	it.buf = nil
	it.seen = nil
	return nil
}

// OpenIterator returns the index's native iterator when available and
// the generic restart wrapper otherwise — the single entry point the
// executor uses, keeping the fallback policy in one place.
func OpenIterator(idx Searcher, q []float32, initialK int, p SearchParams) (Iterator, error) {
	it, err := idx.SearchIterator(q, p)
	if err == ErrNoNativeIterator {
		return NewRestartIterator(idx, q, initialK, p), nil
	}
	return it, err
}
