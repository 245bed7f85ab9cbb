package exec

import (
	"sort"

	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// pruneSegments is scheduler-side segment pruning (paper §II-C,
// §IV-B) over a query's captured segment list. Scalar pruning drops a
// segment whose statistics leave no room for a row passing every
// conjunct: a conjunct's range misses the segment's min/max, its
// partition equality names another partition (partCol is the table's
// partition column when it partitions by exactly one, "" otherwise),
// or two conjuncts on one column share no value. Ranges on a line
// meet iff every pair of them does, so these tests together prune on
// the intersection of every constraint on a column. With a query
// vector and 0 < frac < 1, semantic pruning then keeps the frac of the
// survivors (at least minSegs) whose centroids are nearest the query,
// nearest first; cut reports whether it dropped any.
func pruneSegments(all []*lsm.Segment, preds []compiledPred, partCol string, q []float32, frac float64, minSegs int) (kept []*lsm.Segment, cut bool) {
	for i := range preds {
		for j := i; j < len(preds); j++ {
			if disjoint(&preds[i], &preds[j]) {
				return nil, false
			}
		}
	}
	kept = make([]*lsm.Segment, 0, len(all))
	for _, s := range all {
		// A memtable segment has no statistics and holds rows of every
		// partition: nothing prunes it.
		if s.Reader.InMemory() || admits(s.Meta, preds, partCol) {
			kept = append(kept, s)
		}
	}
	if q != nil && frac > 0 && frac < 1 && len(kept) > 1 {
		n := len(kept)
		kept = semanticCut(kept, q, frac, minSegs)
		cut = len(kept) < n
	}
	return kept, cut
}

// disjoint reports whether no value passes both a and b; a == b asks
// whether a's own range is empty (BETWEEN 9 AND 3).
func disjoint(a, b *compiledPred) bool {
	switch {
	case a.col != b.col:
		return false
	case a.intRange != nil && b.intRange != nil:
		return a.intRange[0] > b.intRange[1] || b.intRange[0] > a.intRange[1]
	case a.floatRange != nil && b.floatRange != nil:
		return a.floatRange[0] > b.floatRange[1] || b.floatRange[0] > a.floatRange[1]
	case a.eqString != nil && b.eqString != nil:
		return *a.eqString != *b.eqString
	}
	return false
}

// admits reports whether m's statistics leave room for a row passing
// each conjunct on its own. Missing statistics never prune.
func admits(m *storage.SegmentMeta, preds []compiledPred, partCol string) bool {
	for i := range preds {
		p := &preds[i]
		if p.intRange != nil && m.PruneByInt(p.col, p.intRange[0], p.intRange[1]) ||
			p.floatRange != nil && m.PruneByFloat(p.col, p.floatRange[0], p.floatRange[1]) ||
			p.eqString != nil && p.col == partCol && *p.eqString != m.Partition {
			return false
		}
	}
	return true
}

// semanticCut keeps the fraction of segments whose centroids are
// nearest the query vector.
func semanticCut(segs []*lsm.Segment, q []float32, frac float64, minSegs int) []*lsm.Segment {
	type scored struct {
		s *lsm.Segment
		d float32
	}
	scoredList := make([]scored, 0, len(segs))
	var noCentroid []*lsm.Segment
	for _, s := range segs {
		if len(s.Meta.Centroid) != len(q) {
			noCentroid = append(noCentroid, s) // can't rank: always keep
			continue
		}
		scoredList = append(scoredList, scored{s, vec.L2Squared(q, s.Meta.Centroid)})
	}
	sort.Slice(scoredList, func(i, j int) bool {
		if scoredList[i].d != scoredList[j].d {
			return scoredList[i].d < scoredList[j].d
		}
		return scoredList[i].s.Meta.Name < scoredList[j].s.Meta.Name
	})
	keep := int(float64(len(scoredList))*frac + 0.5)
	if keep < minSegs {
		keep = minSegs
	}
	if keep < 1 {
		keep = 1
	}
	if keep > len(scoredList) {
		keep = len(scoredList)
	}
	out := make([]*lsm.Segment, 0, keep+len(noCentroid))
	for i := 0; i < keep; i++ {
		out = append(out, scoredList[i].s)
	}
	return append(out, noCentroid...)
}

// partitionColumn names the table's partition column when it is
// partitioned by exactly one ("" otherwise): only then is a segment's
// partition value one column's value.
func (e *Executor) partitionColumn() string {
	if pb := e.Table.Options().PartitionBy; len(pb) == 1 {
		return pb[0]
	}
	return ""
}
