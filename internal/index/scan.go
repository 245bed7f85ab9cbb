package index

import (
	"math"

	"blendhouse/internal/vec"
)

// scanBlock is the number of rows ExactScan feeds one blocked kernel
// call: big enough to amortize the heap-threshold lookup, small enough
// for a stack buffer.
const scanBlock = 64

// ExactScan is the one exact scan: the flat index, IVF-Flat's posting
// lists and the executor's plan A all score rows through it. It scores
// the rows of data (len(q) floats each) against q under metric and
// pushes each into t, or, when t is nil, appends to hits the rows
// within radius and returns hits. Row i's id is ids[i], or i itself
// when ids is nil. A non-nil filter admits an id only when 0 <= id <
// filter.Len() and its bit is set.
//
// Unfiltered rows go through the blocked kernels, 64 at a time;
// filtered rows are scored one at a time. L2 rows are abandoned early
// against the current top-k worst or the radius: squared-L2 partial
// sums are monotone, so an abandoned row could never have been kept,
// and what is kept is bitwise what a per-row vec.Distance scan keeps
// (see internal/vec).
func ExactScan(metric vec.Metric, q, data []float32, ids []int64, filter Filter, t *TopK, radius float32, hits []Candidate) []Candidate {
	dim := len(q)
	n := len(data) / dim
	if filter == nil {
		var dists [scanBlock]float32
		for base := 0; base < n; base += scanBlock {
			rows := min(n-base, scanBlock)
			block := data[base*dim : (base+rows)*dim]
			if metric == vec.L2 {
				vec.L2SquaredBatchThreshold(q, block, dim, dists[:rows], threshold(t, radius))
			} else {
				vec.DistancesTo(metric, q, block, dim, dists[:rows])
			}
			for j, d := range dists[:rows] {
				hits = keep(t, radius, hits, RowID(ids, base+j), d)
			}
		}
		return hits
	}
	for i := 0; i < n; i++ {
		id := RowID(ids, i)
		if id < 0 || id >= int64(filter.Len()) || !filter.Test(int(id)) {
			continue
		}
		row := data[i*dim : i*dim+dim]
		var d float32
		if metric == vec.L2 {
			d = vec.L2SquaredThreshold(q, row, threshold(t, radius))
		} else {
			d = vec.Distance(metric, q, row)
		}
		hits = keep(t, radius, hits, id, d)
	}
	return hits
}

// threshold is the distance past which an L2 row may be abandoned: the
// radius of a range scan, the worst kept candidate once t is full.
func threshold(t *TopK, radius float32) float32 {
	if t == nil {
		return radius
	}
	if w, ok := t.Worst(); ok {
		return w
	}
	return math.MaxFloat32
}

// keep offers one scored row to t, or appends it to hits when it lies
// within radius.
func keep(t *TopK, radius float32, hits []Candidate, id int64, d float32) []Candidate {
	if t != nil {
		t.Push(Candidate{ID: id, Dist: d})
	} else if d <= radius {
		hits = append(hits, Candidate{ID: id, Dist: d})
	}
	return hits
}

// RowID is row i's id: ids[i], or the row offset i when ids is nil.
func RowID(ids []int64, i int) int64 {
	if ids == nil {
		return int64(i)
	}
	return ids[i]
}
