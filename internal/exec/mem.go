package exec

import (
	"blendhouse/internal/index"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
	"blendhouse/internal/wal"
)

// Memtable candidate source: acknowledged-but-unflushed rows live in
// frozen wal.MemSnapshots taken with the run's Version in one
// Table.Acquire call, so a query sees each row exactly once across a
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

// memHits brute-force scans the snapshots for one member: its k
// nearest qualifying rows per snapshot, or for a range search every
// qualifying row within its radius (internal-space distances, like
// every segment candidate source).
func memHits(mb *member, preds []compiledPred, snaps []*wal.MemSnapshot) []hit {
	var out []hit
	t := index.GetTopK(mb.k)
	defer index.PutTopK(t)
	s := getScratch()
	defer putScratch(s)
	lg := mb.lg
	for _, snap := range snaps {
		vcol := snap.Col(lg.VectorColumn)
		if vcol == nil {
			continue
		}
		mMemScans.Inc()
		t.Reset(mb.k)
		for row := 0; row < snap.Rows(); row++ {
			if !snap.Alive(row) || !memPass(preds, snap, row) {
				continue
			}
			d := vec.Distance(lg.Metric, lg.Distance.Query, vcol.Vector(row))
			if lg.Range == nil {
				t.Push(index.Candidate{ID: int64(row), Dist: d})
			} else if d <= mb.radius {
				out = append(out, hit{meta: snap.Meta, offset: row, dist: d})
			}
		}
		s.cands = t.AppendResults(s.cands[:0])
		for _, c := range s.cands {
			out = append(out, hit{meta: snap.Meta, offset: int(c.ID), dist: c.Dist})
		}
	}
	return out
}

// memSnapshot finds the snapshot behind a memtable hit's synthetic
// segment (nil for a real segment).
func memSnapshot(snaps []*wal.MemSnapshot, meta *storage.SegmentMeta) *wal.MemSnapshot {
	for _, s := range snaps {
		if s.Meta.Name == meta.Name {
			return s
		}
	}
	return nil
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
