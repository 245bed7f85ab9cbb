package exec

import (
	"blendhouse/internal/index"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
	"blendhouse/internal/wal"
)

// Memtable candidate source: acknowledged-but-unflushed rows live in
// frozen wal.MemSnapshots captured with the segment catalog in one
// Table.View() call, so a query sees each row exactly once across a
// concurrent flush. Memtables are small (bounded by the flush
// thresholds) and have no index, so a brute-force scan with inline
// predicate evaluation merges them into the per-segment candidate
// stream. Their synthetic "~mem" segment names sort after every real
// segment, keeping the deterministic (dist, segment, offset) result
// order stable across flush boundaries.

var mMemScans = obs.Default().Counter("bh.exec.memtable_scans")

// memPass evaluates the scalar conjuncts against one snapshot row.
func memPass(preds []compiledPred, snap *wal.MemSnapshot, row int) bool {
	for _, p := range preds {
		c := snap.Col(p.col)
		if c == nil || !p.eval(c, row) {
			return false
		}
	}
	return true
}

// memTopK brute-force scans the snapshots for the k nearest
// qualifying rows (internal-space distances, like every segment
// candidate source).
func memTopK(lg *plan.Logical, preds []compiledPred, snaps []*wal.MemSnapshot, k int) []hit {
	var out []hit
	t := index.GetTopK(k)
	defer index.PutTopK(t)
	s := getScratch()
	defer putScratch(s)
	for _, snap := range snaps {
		vcol := snap.Col(lg.VectorColumn)
		if vcol == nil {
			continue
		}
		mMemScans.Inc()
		t.Reset(k)
		for row := 0; row < snap.Rows(); row++ {
			if !snap.Alive(row) || !memPass(preds, snap, row) {
				continue
			}
			d := vec.Distance(lg.Metric, lg.Distance.Query, vcol.Vector(row))
			t.Push(index.Candidate{ID: int64(row), Dist: d})
		}
		s.cands = t.AppendResults(s.cands[:0])
		for _, c := range s.cands {
			out = append(out, hit{meta: snap.Meta, offset: int(c.ID), dist: c.Dist})
		}
	}
	return out
}

// memRange returns every qualifying snapshot row within the internal-
// space radius.
func memRange(lg *plan.Logical, preds []compiledPred, snaps []*wal.MemSnapshot, radius float32) []hit {
	var out []hit
	for _, snap := range snaps {
		vcol := snap.Col(lg.VectorColumn)
		if vcol == nil {
			continue
		}
		mMemScans.Inc()
		for row := 0; row < snap.Rows(); row++ {
			if !snap.Alive(row) || !memPass(preds, snap, row) {
				continue
			}
			if d := vec.Distance(lg.Metric, lg.Distance.Query, vcol.Vector(row)); d <= radius {
				out = append(out, hit{meta: snap.Meta, offset: row, dist: d})
			}
		}
	}
	return out
}

// memSnapshotIndex maps synthetic segment names back to snapshots for
// result assembly.
func memSnapshotIndex(snaps []*wal.MemSnapshot) map[string]*wal.MemSnapshot {
	if len(snaps) == 0 {
		return nil
	}
	out := make(map[string]*wal.MemSnapshot, len(snaps))
	for _, s := range snaps {
		out[s.Meta.Name] = s
	}
	return out
}

// memFetchColumn compacts the requested snapshot rows into a fresh
// ColumnData, mirroring what SegmentReader.ReadRows returns for
// segment hits so assembly treats both sources identically.
func memFetchColumn(snap *wal.MemSnapshot, col string, rows []int) *storage.ColumnData {
	src := snap.Col(col)
	if src == nil {
		return nil
	}
	out := storage.NewColumnDataCap(src.Def, len(rows))
	for _, r := range rows {
		out.AppendRow(src, r)
	}
	return out
}
