package lsm

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/index/flat"
	"blendhouse/internal/storage"
	"blendhouse/internal/wal"
)

// Version is one immutable state of a table (paper §III: reads see
// multi-versioned immutable segments plus their delete bitmaps): the
// live segments sorted by name, each with its reader and bitmap, and
// the memtables — sealed ones oldest first, then the active one. Every
// mutation builds the next Version under t.mu and publishes it; a
// holder of an older one keeps reading exactly what it acquired.
type Version struct {
	Segments []*Segment

	sealed []*wal.Memtable
	mem    *wal.Memtable

	t    *Table
	pins atomic.Int32 // one while current, one per Acquire
}

// Segment is one live segment as a Version names it, or one memtable
// snapshot as Acquire serves it. It never changes: a DELETE publishes a
// new Segment with a new bitmap, sharing the reader and the lifetime
// count of the one it replaces.
type Segment struct {
	Meta    *storage.SegmentMeta
	Reader  *storage.SegmentReader // shared by every query of the segment
	Deletes *bitset.Bitset         // nil: no row deleted
	// Index is a memtable segment's flat index over its frozen rows; a
	// stored segment's (nil here) is loaded from its blob.
	Index index.Index

	refs *atomic.Int32 // Versions alive that name the segment
}

// newSegment is the one place a segment gets its reader.
func (t *Table) newSegment(m *storage.SegmentMeta, del *bitset.Bitset) *Segment {
	return &Segment{
		Meta:    m,
		Reader:  &storage.SegmentReader{Store: t.store, Meta: m, Schema: t.opts.Schema},
		Deletes: del,
		refs:    new(atomic.Int32),
	}
}

func (s *Segment) deletedRows() int {
	if s.Deletes == nil {
		return 0
	}
	return s.Deletes.Count()
}

// memtables lists v's memtables, sealed ones oldest first, then the
// active one.
func (v *Version) memtables() []*wal.Memtable {
	if v.mem == nil {
		return v.sealed
	}
	return append(slices.Clip(v.sealed), v.mem)
}

// Segment returns v's segment of that name, nil when v names none.
func (v *Version) Segment(name string) *Segment {
	i, ok := slices.BinarySearchFunc(v.Segments, name, func(s *Segment, name string) int {
		return strings.Compare(s.Meta.Name, name)
	})
	if !ok {
		return nil
	}
	return v.Segments[i]
}

// Acquire pins the current Version and returns it with the segments a
// query of it reads: v.Segments, then one memtable segment per
// non-empty memtable (sealed ones oldest first, then the active one),
// all under one read lock, so a concurrent flush can never show a row
// twice (memtable and new segment) or not at all. The caller must
// Release the Version; until then none of its segments' blobs is
// deleted.
func (t *Table) Acquire() (*Version, []*Segment) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.cur
	v.pins.Add(1)
	segs := slices.Clip(v.Segments) // an append copies: v's slice is shared
	for _, m := range v.sealed {
		segs = t.appendMem(segs, m)
	}
	if v.mem != nil {
		segs = t.appendMem(segs, v.mem)
	}
	return v, segs
}

// appendMem appends m's snapshot to segs as a memtable segment: its
// frozen columns served from memory, its deleted rows as the bitmap,
// and a flat index that views the frozen vectors and row offsets. Its
// "~mem" name stays the same while the memtable's rows and deletes
// change, so nothing keyed by segment name may hold it: it is in no
// Version, never retires, and the column cache and the executor's
// index handles pass it by. Rows only grow: an empty memtable is asked
// before it is snapshotted.
func (t *Table) appendMem(segs []*Segment, m *wal.Memtable) []*Segment {
	if m.Rows() == 0 {
		return segs
	}
	s := m.Snapshot()
	seg := &Segment{Meta: s.Meta, Reader: storage.MemReader(s.Meta, s.Schema, s.Cols), Deletes: s.Deletes}
	if vcol := s.Col(t.opts.IndexColumn); vcol != nil {
		seg.Index = flat.View(t.buildParamsFor(index.Flat, s.Meta.Rows), vcol.Vecs, s.IDs)
	}
	return append(segs, seg)
}

// ExactIndex returns a flat index over s's vector column, read through
// its reader, with the row offsets as ids: the exact kernel flat
// segments and memtables run on, for a caller that has no index of s.
func (t *Table) ExactIndex(ctx context.Context, s *Segment) (index.Index, error) {
	col, err := s.Reader.ReadColumnCtx(ctx, t.opts.IndexColumn)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, col.Len())
	for i := range ids {
		ids[i] = int64(i)
	}
	return flat.View(t.buildParamsFor(index.Flat, s.Meta.Rows), col.Vecs, ids), nil
}

// current returns the current Version unpinned, for a caller that
// reads its metadata and no blob.
func (t *Table) current() *Version {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cur
}

// Release unpins v. When a Version that is no longer current loses its
// last pin, each segment no other live Version names retires: its
// blobs are deleted and the table's retire hooks run.
func (v *Version) Release() {
	if v.pins.Add(-1) > 0 {
		return
	}
	for _, s := range v.Segments {
		if s.refs.Add(-1) == 0 {
			v.t.retireSegment(s)
		}
	}
}

// publish builds the next Version from the current one and makes it
// current. edit runs under t.mu with the copy: it changes the copy's
// segment and memtable slices (never an element in place) and any
// table state that must swap with them.
func (t *Table) publish(edit func(next *Version)) {
	t.mu.Lock()
	cur := t.cur
	next := &Version{t: t, Segments: slices.Clone(cur.Segments), sealed: slices.Clone(cur.sealed), mem: cur.mem}
	edit(next)
	slices.SortFunc(next.Segments, func(a, b *Segment) int { return strings.Compare(a.Meta.Name, b.Meta.Name) })
	next.pins.Store(1)
	for _, s := range next.Segments {
		s.refs.Add(1)
	}
	t.cur = next
	t.mu.Unlock()
	cur.Release()
}

// OnRetire registers fn to run with the name of each segment as it
// retires: compacted away or dropped, and released by the last Version
// that named it. An executor drops its index handle there.
func (t *Table) OnRetire(fn func(seg string)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onRetire = append(t.onRetire, fn)
}

// retireSegment deletes a retired segment's blobs (best effort: the
// manifest no longer names them, so an orphan is harmless) and runs
// the retire hooks. A dropped table's blobs are already gone, and its
// name may be in use again.
func (t *Table) retireSegment(s *Segment) {
	if !t.dropped.Load() {
		_ = t.deleteBlobs(segmentsPrefix(t.opts.Name) + s.Meta.Name + "/")
	}
	t.mu.RLock()
	hooks := t.onRetire
	t.mu.RUnlock()
	for _, fn := range hooks {
		fn(s.Meta.Name)
	}
}

// deleteBlobs deletes every blob under prefix.
func (t *Table) deleteBlobs(prefix string) error {
	keys, err := t.store.List(prefix)
	for _, k := range keys {
		if err == nil {
			err = t.store.Delete(k)
		}
	}
	return err
}

func segmentsPrefix(table string) string { return "tables/" + table + "/segments/" }
