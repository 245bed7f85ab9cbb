package lsm

import (
	"fmt"
	"slices"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// Compaction metrics (SHOW METRICS / the -debug-addr endpoint).
var (
	mCompactRuns     = obs.Default().Counter("bh.lsm.compaction.runs")
	mCompactSegments = obs.Default().Counter("bh.lsm.compaction.segments_merged")
	mCompactRows     = obs.Default().Counter("bh.lsm.compaction.rows_written")
	mCompactDur      = obs.Default().Histogram("bh.lsm.compaction.duration")
)

// Background compaction (paper §III-B "Vector index compaction"):
// small segments within the same (partition, bucket) group are merged
// into one larger segment; deleted rows are dropped during the merge,
// and the merged segment gets a freshly built vector index — index
// consolidation rides the existing compaction mechanism for free.

// CompactionPolicy controls when a group compacts.
type CompactionPolicy struct {
	// MinSegments is the group size that triggers a merge (default 4).
	MinSegments int
	// MaxMergeRows caps the merged segment's size (default 1<<20).
	MaxMergeRows int
}

func (p CompactionPolicy) withDefaults() CompactionPolicy {
	if p.MinSegments <= 0 {
		p.MinSegments = 4
	}
	if p.MaxMergeRows <= 0 {
		p.MaxMergeRows = 1 << 20
	}
	return p
}

// CompactOnce merges the most fragmented (partition, bucket) group if
// it has at least policy.MinSegments segments. It returns the number
// of segments merged (0 when nothing qualified).
func (t *Table) CompactOnce(policy CompactionPolicy) (int, error) {
	policy = policy.withDefaults()
	v, _ := t.Acquire()
	defer v.Release()
	group := pickCompactionGroup(v, policy)
	if len(group) < policy.MinSegments {
		return 0, nil
	}
	compactStart := obs.Now()
	// Read the group's live rows into one batch, dropping the rows the
	// pinned Version's bitmaps delete. The MaxMergeRows cap bounds how
	// many segments this round actually merges; segments beyond the cap
	// stay live untouched. rowMaps records where every carried row
	// landed in the merged batch, for the late deletes below.
	merged := storage.NewRowBatch(t.opts.Schema)
	maxLevel := 0
	var inputs []*Segment
	var rowMaps [][]int // old row -> merged row, -1 = dropped as deleted
	for _, s := range group {
		if merged.Len() >= policy.MaxMergeRows {
			break
		}
		inputs = append(inputs, s)
		maxLevel = max(maxLevel, s.Meta.Level)
		cols := make([]*storage.ColumnData, len(t.opts.Schema.Columns))
		for ci, def := range t.opts.Schema.Columns {
			col, err := s.Reader.ReadColumn(def.Name)
			if err != nil {
				return 0, fmt.Errorf("lsm: compaction reading %s/%s: %w", s.Meta.Name, def.Name, err)
			}
			cols[ci] = col
		}
		src := &storage.RowBatch{Schema: t.opts.Schema, Cols: cols}
		rowMap := make([]int, s.Meta.Rows)
		for r := range rowMap {
			if s.Deletes != nil && s.Deletes.Test(r) {
				rowMap[r] = -1
				continue
			}
			rowMap[r] = merged.Len()
			merged.AppendRow(src, r)
		}
		rowMaps = append(rowMaps, rowMap)
	}
	if len(inputs) < 2 {
		return 0, nil // nothing meaningful to merge under the cap
	}
	// Write the merged segment (fresh index built inside).
	newMeta, err := t.writeSegment(merged, inputs[0].Meta.Partition, inputs[0].Meta.Bucket, maxLevel+1)
	if err != nil {
		return 0, fmt.Errorf("lsm: writing compacted segment: %w", err)
	}
	// From here until the publish no DELETE and no other compaction's
	// swap may run (both take dmlMu), so the current bitmaps read below
	// are the ones the merged segment replaces.
	t.dmlMu.Lock()
	newBM, live := t.lateDeletes(inputs, rowMaps, merged.Len())
	if !live {
		// Another compaction merged an input first (or the table was
		// dropped): this one's segment retires unpublished.
		t.dmlMu.Unlock()
		t.retireSegment(t.newSegment(newMeta, nil))
		return 0, nil
	}
	if newBM != nil {
		// Persist the carried deletes before the swap: once the manifest
		// stops referencing the old segments, their bitmaps are the only
		// durable record of these rows' deletion. A failure here aborts
		// the compaction cleanly (the unreferenced merged segment is a
		// harmless orphan).
		blob, merr := newBM.MarshalBinary()
		if merr == nil {
			merr = t.store.Put(storage.DeleteBitmapKey(t.opts.Name, newMeta.Name), blob)
		}
		if merr != nil {
			t.dmlMu.Unlock()
			return 0, fmt.Errorf("lsm: persisting carried delete bitmap of %s: %w", newMeta.Name, merr)
		}
	}
	t.publish(func(next *Version) {
		next.Segments = slices.DeleteFunc(next.Segments, func(s *Segment) bool {
			return slices.ContainsFunc(inputs, func(in *Segment) bool { return in.Meta.Name == s.Meta.Name })
		})
		next.Segments = append(next.Segments, t.newSegment(newMeta, newBM))
	})
	t.dmlMu.Unlock()
	// The inputs retire when v, which names them, is released — after
	// the manifest stopped naming them. If it could not be saved, the
	// durable manifest still names them, so their blobs stay.
	if err := t.saveManifest(); err != nil {
		for _, s := range inputs {
			s.refs.Add(1)
		}
		return 0, err
	}
	mCompactRuns.Inc()
	mCompactSegments.Add(int64(len(inputs)))
	mCompactRows.Add(int64(merged.Len()))
	dur := time.Since(compactStart)
	mCompactDur.Observe(dur)
	lsmLog.Info("compaction", "table", t.opts.Name, "segments_merged", len(inputs),
		"rows_written", merged.Len(), "duration_ms", float64(dur.Microseconds())/1000)
	return len(inputs), nil
}

// lateDeletes carries into the merged segment the rows a DELETE marked
// after the pinned Version was acquired. Bitmaps are copy-on-write, so
// an input whose current bitmap is the one the merge read has none;
// only a changed one is diffed. live is false when an input is no
// longer current. Caller holds dmlMu.
func (t *Table) lateDeletes(inputs []*Segment, rowMaps [][]int, rows int) (bm *bitset.Bitset, live bool) {
	t.mu.RLock()
	cur := t.cur
	t.mu.RUnlock()
	for i, in := range inputs {
		now := cur.Segment(in.Meta.Name)
		if now == nil {
			return nil, false
		}
		if now.Deletes == in.Deletes {
			continue
		}
		for r, to := range rowMaps[i] {
			if to >= 0 && now.Deletes.Test(r) {
				if bm == nil {
					bm = bitset.New(rows)
				}
				bm.Set(to)
			}
		}
	}
	return bm, true
}

// pickCompactionGroup returns v's (partition, bucket) group with the
// most segments, restricted to segments below the merged-size cap,
// oldest (lowest name) first.
func pickCompactionGroup(v *Version, policy CompactionPolicy) []*Segment {
	groups := map[string][]*Segment{}
	for _, s := range v.Segments {
		if s.Meta.Rows >= policy.MaxMergeRows {
			continue
		}
		key := fmt.Sprintf("%s#%d", s.Meta.Partition, s.Meta.Bucket)
		groups[key] = append(groups[key], s)
	}
	bestKey, bestLen := "", 0
	for k, g := range groups {
		if len(g) > bestLen || (len(g) == bestLen && k < bestKey) {
			bestKey, bestLen = k, len(g)
		}
	}
	return groups[bestKey]
}

// CompactAll repeatedly compacts until no group qualifies, returning
// the total number of segments merged. Used by tests and by the
// dedicated compaction VW.
func (t *Table) CompactAll(policy CompactionPolicy) (int, error) {
	total := 0
	for {
		n, err := t.CompactOnce(policy)
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
		total += n
	}
}
