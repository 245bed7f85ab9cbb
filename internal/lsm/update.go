package lsm

import (
	"context"
	"errors"
	"fmt"

	"blendhouse/internal/bitset"
	"blendhouse/internal/storage"
	"blendhouse/internal/wal"
)

// Realtime updates (paper §III-B, Figure 6): instead of mutating
// vector indexes — unsupported or prohibitively expensive in most
// libraries — an update writes the new row versions as a fresh segment
// (with its own freshly built index) and marks the superseded rows in
// the old segments' delete bitmaps. Queries subtract the bitmaps;
// compaction later rewrites the segments without the dead rows and
// drops the bitmaps.

// DeleteByKey marks every row whose pkCol value appears in keys as
// deleted and returns the number of rows marked. The delete record is
// group-committed through the log (durable before the statement acks),
// then applied to the memtables and segment bitmaps; a table whose log
// is not running returns ErrReadOnly. dmlMu keeps the whole
// application atomic with respect to memtable flushes — a delete can
// never land between a flush's snapshot and its segment registration,
// which would lose it.
func (t *Table) DeleteByKey(ctx context.Context, pkCol string, keys []int64) (int, error) {
	if err := t.validateKeyCol(pkCol); err != nil {
		return 0, err
	}
	ws := t.walRT.Load()
	if ws == nil {
		return 0, t.errReadOnly()
	}
	t.dmlMu.Lock()
	defer t.dmlMu.Unlock()
	lsn, err := ws.log.Append(ctx, &wal.Record{Type: wal.RecDelete, DeleteCol: pkCol, DeleteKeys: keys})
	if errors.Is(err, wal.ErrClosed) {
		return 0, t.errReadOnly()
	}
	if err != nil {
		return 0, err
	}
	// dmlMu keeps the memtable set as it is: only a seal, a flush and
	// Drop change it, and they hold dmlMu too.
	v := t.current()
	marked := 0
	for _, m := range v.memtables() {
		marked += m.DeleteByKey(pkCol, keys)
	}
	// Only the active memtable's watermark advances to the delete's
	// LSN: sealed memtables flush (and truncate the WAL up to their
	// MaxLSN) before newer ones, so letting a delete raise a sealed
	// memtable's MaxLSN would truncate insert records still buffered
	// only in memory — losing acknowledged rows on crash. The delete
	// itself needs no watermark protection: its segment bitmaps are
	// persisted below and replaying a delete is idempotent.
	if v.mem != nil {
		v.mem.NoteLSN(lsn)
	}
	n, err := t.deleteFromSegmentsLocked(pkCol, keys)
	return marked + n, err
}

func (t *Table) validateKeyCol(pkCol string) error {
	ci, def := t.opts.Schema.Col(pkCol)
	if ci < 0 {
		return fmt.Errorf("lsm: key column %q not in schema", pkCol)
	}
	if def.Type != storage.Int64Type && def.Type != storage.DateTimeType {
		return fmt.Errorf("lsm: key column %q must be integer-typed", pkCol)
	}
	return nil
}

// deleteFromSegments marks keyed rows deleted in segment bitmaps: WAL
// replay's delete, for records already in the log. It takes dmlMu so
// bitmap application is atomic with respect to both memtable flushes
// and compaction's late-delete diff and swap; callers already under
// dmlMu use deleteFromSegmentsLocked.
func (t *Table) deleteFromSegments(pkCol string, keys []int64) (int, error) {
	t.dmlMu.Lock()
	defer t.dmlMu.Unlock()
	return t.deleteFromSegmentsLocked(pkCol, keys)
}

// deleteFromSegmentsLocked is deleteFromSegments with dmlMu held, which
// keeps the segment set and every bitmap as they are until it
// publishes. Each segment with a newly deleted row gets a copy of its
// bitmap with those bits set; every copy is persisted before any is
// published, so a held Version never changes and a DELETE whose Put
// fails hides no row.
func (t *Table) deleteFromSegmentsLocked(pkCol string, keys []int64) (int, error) {
	if err := t.validateKeyCol(pkCol); err != nil {
		return 0, err
	}
	want := make(map[int64]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	v, _ := t.Acquire()
	defer v.Release()
	marked := 0
	changed := map[string]*bitset.Bitset{}
	for _, s := range v.Segments {
		// Min/max pruning: skip segments that can't contain any key.
		anyInRange := false
		for k := range want {
			if !s.Meta.PruneByInt(pkCol, k, k) {
				anyInRange = true
				break
			}
		}
		if !anyInRange {
			continue
		}
		col, err := s.Reader.ReadColumn(pkCol)
		if err != nil {
			return 0, fmt.Errorf("lsm: reading key column of %s: %w", s.Meta.Name, err)
		}
		var bm *bitset.Bitset
		for r, k := range col.Ints {
			if !want[k] || s.Deletes != nil && s.Deletes.Test(r) {
				continue
			}
			switch {
			case bm != nil:
			case s.Deletes != nil:
				bm = s.Deletes.Clone()
			default:
				bm = bitset.New(s.Meta.Rows)
			}
			bm.Set(r)
			marked++
		}
		if bm == nil {
			continue
		}
		blob, err := bm.MarshalBinary()
		if err == nil {
			err = t.store.Put(storage.DeleteBitmapKey(t.opts.Name, s.Meta.Name), blob)
		}
		if err != nil {
			return 0, fmt.Errorf("lsm: persisting delete bitmap of %s: %w", s.Meta.Name, err)
		}
		changed[s.Meta.Name] = bm
	}
	if len(changed) > 0 {
		t.publish(func(next *Version) {
			for i, s := range next.Segments {
				if bm := changed[s.Meta.Name]; bm != nil {
					c := *s
					c.Deletes = bm
					next.Segments[i] = &c
				}
			}
		})
	}
	return marked, nil
}

// Update replaces rows by primary key: rows in newRows whose pkCol
// value matches an existing live row supersede it (old row marked
// deleted, new row inserted as a fresh version); unmatched rows are
// plain inserts. The delete and the insert are logged as separate
// records. Returns the number of superseded rows.
func (t *Table) Update(ctx context.Context, pkCol string, newRows *storage.RowBatch) (int, error) {
	if err := newRows.Validate(); err != nil {
		return 0, err
	}
	pk := newRows.Col(pkCol)
	if pk == nil {
		return 0, fmt.Errorf("lsm: key column %q not in batch", pkCol)
	}
	keys := make([]int64, pk.Len())
	copy(keys, pk.Ints)
	deleted, err := t.DeleteByKey(ctx, pkCol, keys)
	if err != nil {
		return deleted, err
	}
	if err := t.Insert(ctx, newRows); err != nil {
		return deleted, err
	}
	return deleted, nil
}

// DeletedRows returns the total number of rows currently marked
// deleted (awaiting compaction).
func (t *Table) DeletedRows() int {
	n := 0
	for _, s := range t.current().Segments {
		n += s.deletedRows()
	}
	return n
}
