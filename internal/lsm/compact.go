package lsm

import (
	"fmt"
	"sort"
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
	group, metas := t.pickCompactionGroup(policy)
	if len(metas) < policy.MinSegments {
		return 0, nil
	}
	_ = group
	compactStart := obs.Now()
	// Read the group's live rows into one batch, applying deletes.
	// The MaxMergeRows cap bounds how many segments this round
	// actually merges; segments beyond the cap stay live untouched.
	//
	// Deletes run concurrently with this read, so each segment's bitmap
	// is snapshotted (cloned under t.mu) and the snapshot drives the
	// merge, while rowMaps records where every carried row landed in the
	// merged batch. At swap time, under dmlMu, the live bitmaps are
	// diffed against the snapshots and any row deleted after its
	// snapshot was taken is re-marked in the new segment's bitmap —
	// without this, a DELETE landing between the bitmap read and the
	// catalog swap was silently dropped when t.deletes[m.Name] was
	// discarded.
	merged := storage.NewRowBatch(t.opts.Schema)
	maxLevel := 0
	var mergedMetas []*storage.SegmentMeta
	var snapshots []*bitset.Bitset
	var rowMaps [][]int // old row -> merged row, -1 = dropped as deleted
	for _, m := range metas {
		if merged.Len() >= policy.MaxMergeRows {
			break
		}
		mergedMetas = append(mergedMetas, m)
		if m.Level > maxLevel {
			maxLevel = m.Level
		}
		bm, err := t.DeleteBitmap(m.Name)
		if err != nil {
			return 0, err
		}
		var snap *bitset.Bitset
		if bm != nil {
			t.mu.RLock()
			snap = bm.Clone() // markDeleted mutates the live bitmap under t.mu
			t.mu.RUnlock()
		}
		snapshots = append(snapshots, snap)
		rd := &storage.SegmentReader{Store: t.store, Meta: m, Schema: t.opts.Schema}
		cols := make([]*storage.ColumnData, len(t.opts.Schema.Columns))
		for ci, def := range t.opts.Schema.Columns {
			col, err := rd.ReadColumn(def.Name)
			if err != nil {
				return 0, fmt.Errorf("lsm: compaction reading %s/%s: %w", m.Name, def.Name, err)
			}
			cols[ci] = col
		}
		src := &storage.RowBatch{Schema: t.opts.Schema, Cols: cols}
		rowMap := make([]int, m.Rows)
		for r := 0; r < m.Rows; r++ {
			if snap != nil && snap.Test(r) {
				rowMap[r] = -1
				continue
			}
			rowMap[r] = merged.Len()
			merged.AppendRow(src, r)
		}
		rowMaps = append(rowMaps, rowMap)
	}
	if len(mergedMetas) < 2 {
		return 0, nil // nothing meaningful to merge under the cap
	}
	// Write the merged segment (fresh index built inside).
	newMeta, err := t.writeSegment(merged, mergedMetas[0].Partition, mergedMetas[0].Bucket, maxLevel+1)
	if err != nil {
		return 0, fmt.Errorf("lsm: writing compacted segment: %w", err)
	}
	// From here until the catalog swap no new delete may apply: dmlMu
	// excludes deleteFromSegments, so the late-delete diff below is
	// complete and the swap is atomic with respect to DML.
	t.dmlMu.Lock()
	var newBM *bitset.Bitset
	for i, m := range mergedMetas {
		live, berr := t.DeleteBitmap(m.Name)
		if berr != nil {
			t.dmlMu.Unlock()
			return 0, berr
		}
		if live == nil {
			continue
		}
		snap, rowMap := snapshots[i], rowMaps[i]
		t.mu.RLock()
		for r := 0; r < m.Rows; r++ {
			if live.Test(r) && rowMap[r] >= 0 && (snap == nil || !snap.Test(r)) {
				if newBM == nil {
					newBM = bitset.New(merged.Len())
				}
				newBM.Set(rowMap[r])
			}
		}
		t.mu.RUnlock()
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
	// Swap catalog: register the new segment, retire the merged ones.
	t.mu.Lock()
	t.addSegmentLocked(newMeta)
	if newBM != nil {
		t.deletes[newMeta.Name] = newBM
	}
	for _, m := range mergedMetas {
		delete(t.segments, m.Name)
		delete(t.readers, m.Name)
		delete(t.deletes, m.Name)
	}
	t.mu.Unlock()
	t.dmlMu.Unlock()
	if err := t.saveManifest(); err != nil {
		return 0, err
	}
	// Best-effort cleanup of retired blobs; orphans are harmless
	// because the manifest no longer references them.
	for _, m := range mergedMetas {
		prefix := "tables/" + t.opts.Name + "/segments/" + m.Name + "/"
		if keys, lerr := t.store.List(prefix); lerr == nil {
			for _, k := range keys {
				_ = t.store.Delete(k)
			}
		}
	}
	mCompactRuns.Inc()
	mCompactSegments.Add(int64(len(mergedMetas)))
	mCompactRows.Add(int64(merged.Len()))
	dur := time.Since(compactStart)
	mCompactDur.Observe(dur)
	lsmLog.Info("compaction", "table", t.opts.Name, "segments_merged", len(mergedMetas),
		"rows_written", merged.Len(), "duration_ms", float64(dur.Microseconds())/1000)
	return len(mergedMetas), nil
}

// pickCompactionGroup returns the (partition,bucket) group with the
// most segments, restricted to segments below the merged-size cap.
func (t *Table) pickCompactionGroup(policy CompactionPolicy) (string, []*storage.SegmentMeta) {
	t.mu.RLock()
	groups := map[string][]*storage.SegmentMeta{}
	for _, m := range t.segments {
		if m.Rows >= policy.MaxMergeRows {
			continue
		}
		key := fmt.Sprintf("%s#%d", m.Partition, m.Bucket)
		groups[key] = append(groups[key], m)
	}
	t.mu.RUnlock()
	bestKey, bestLen := "", 0
	for k, v := range groups {
		if len(v) > bestLen || (len(v) == bestLen && k < bestKey) {
			bestKey, bestLen = k, len(v)
		}
	}
	metas := groups[bestKey]
	// Merge oldest (lowest id) first for deterministic behaviour.
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	return bestKey, metas
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
