package exec

import (
	"sync"

	"blendhouse/internal/index"
)

// Per-segment scan scratch: the row-offset list and candidate buffer a
// brute-force scan needs, and the candidate rows, candidates and
// predicate verdicts of a post-filter iterator batch, pooled so
// steady-state query execution stays allocation-free. Pooled buffers
// must never escape the scan that borrowed them — results are copied
// out (as hits) before release.
type scanScratch struct {
	rows  []int
	cands []index.Candidate
	pass  []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch() *scanScratch { return scratchPool.Get().(*scanScratch) }

func putScratch(s *scanScratch) {
	s.rows = s.rows[:0]
	s.cands = s.cands[:0]
	s.pass = s.pass[:0]
	scratchPool.Put(s)
}
