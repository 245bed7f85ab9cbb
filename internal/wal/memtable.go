package wal

import (
	"fmt"
	"sync"

	"blendhouse/internal/bitset"
	"blendhouse/internal/storage"
)

// Memtable buffers acknowledged-but-unflushed rows in columnar form,
// the layout of a segment's columns, so a query reads a snapshot of it
// as one more segment. Columns and row offsets are append-only: a
// snapshot captures capacity-capped views under the mutex, and later
// appends either write past the snapshot's length or reallocate —
// either way the frozen view never changes, and nothing writes through
// one. Deletes are tracked in a row-index set that each snapshot turns
// into a bitmap (deletes are rare relative to reads).
type Memtable struct {
	schema *storage.Schema
	name   string

	mu      sync.Mutex
	batch   *storage.RowBatch
	ids     []int64 // row offsets 0..n-1: the ids of a flat index over the rows
	deleted map[int]struct{}
	bytes   int64
	maxLSN  int64
}

// NewMemtable creates an empty memtable. gen distinguishes successive
// memtables of one table (it appears in the synthetic segment name, so
// result ordering stays deterministic across flush boundaries).
func NewMemtable(schema *storage.Schema, gen int64) *Memtable {
	return &Memtable{
		schema:  schema,
		name:    fmt.Sprintf("~mem%06d", gen),
		batch:   storage.NewRowBatch(schema),
		deleted: make(map[int]struct{}),
	}
}

// rowBytes estimates the in-memory footprint of one row.
func rowBytes(schema *storage.Schema, batch *storage.RowBatch, row int) int64 {
	var n int64
	for _, col := range batch.Cols {
		switch col.Def.Type {
		case storage.Int64Type, storage.DateTimeType, storage.Float64Type:
			n += 8
		case storage.StringType:
			n += 16 + int64(len(col.Strs[row]))
		case storage.VectorType:
			n += 4 * int64(col.Def.Dim)
		}
	}
	return n
}

// Append adds every row of batch (already WAL-durable at lsn) and
// returns how much it added to Bytes.
func (m *Memtable) Append(batch *storage.RowBatch, lsn int64) int64 {
	n := batch.Len()
	m.mu.Lock()
	defer m.mu.Unlock()
	before := m.bytes
	for _, src := range batch.Cols {
		dst := m.batch.Col(src.Def.Name)
		switch src.Def.Type {
		case storage.Int64Type, storage.DateTimeType:
			dst.Ints = append(dst.Ints, src.Ints...)
		case storage.Float64Type:
			dst.Floats = append(dst.Floats, src.Floats...)
		case storage.StringType:
			dst.Strs = append(dst.Strs, src.Strs...)
		case storage.VectorType:
			dst.Vecs = append(dst.Vecs, src.Vecs...)
		}
	}
	for i := 0; i < n; i++ {
		m.bytes += rowBytes(m.schema, batch, i)
		m.ids = append(m.ids, int64(len(m.ids)))
	}
	if lsn > m.maxLSN {
		m.maxLSN = lsn
	}
	return m.bytes - before
}

// DeleteByKey marks rows whose key-column value is in keys as deleted
// and returns how many rows it marked. It deliberately does NOT touch
// maxLSN: deletes are applied to every live memtable, and raising a
// sealed memtable's watermark to the delete's LSN would let its flush
// truncate WAL insert records still buffered only in newer memtables —
// losing acknowledged rows on crash. The caller advances the active
// memtable's watermark with NoteLSN instead.
func (m *Memtable) DeleteByKey(col string, keys []int64) int {
	keySet := make(map[int64]struct{}, len(keys))
	for _, k := range keys {
		keySet[k] = struct{}{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cd := m.batch.Col(col)
	marked := 0
	if cd != nil {
		for i, v := range cd.Ints {
			if _, hit := keySet[v]; hit {
				if _, already := m.deleted[i]; !already {
					m.deleted[i] = struct{}{}
					marked++
				}
			}
		}
	}
	return marked
}

// NoteLSN raises the memtable's watermark to lsn. Only ever called on
// the newest (active) memtable — every older memtable holds strictly
// smaller insert LSNs and flushes first, so advancing the active
// watermark past a delete's LSN can never truncate an unflushed insert.
func (m *Memtable) NoteLSN(lsn int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn > m.maxLSN {
		m.maxLSN = lsn
	}
}

// Rows returns the total appended row count (including deleted rows).
func (m *Memtable) Rows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batch.Len()
}

// Bytes returns the estimated in-memory footprint.
func (m *Memtable) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// MaxLSN returns the highest LSN applied to this memtable.
func (m *Memtable) MaxLSN() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxLSN
}

// MemSnapshot is a frozen, race-free view of a memtable for one query,
// in the parts a segment has (the table serves it as one). Meta is
// synthetic: its "~mem" name prefix sorts after every real segment
// name, keeping merged result order deterministic.
type MemSnapshot struct {
	Meta    *storage.SegmentMeta
	Schema  *storage.Schema
	MaxLSN  int64
	Cols    []*storage.ColumnData // frozen, in schema order
	IDs     []int64               // row offsets 0..Rows-1, frozen
	Deletes *bitset.Bitset        // rows deleted at snapshot time; nil when none
}

// Snapshot freezes the memtable's current contents.
func (m *Memtable) Snapshot() *MemSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.batch.Len()
	s := &MemSnapshot{
		Meta:   &storage.SegmentMeta{Name: m.name, Rows: n, Level: -1},
		Schema: m.schema,
		MaxLSN: m.maxLSN,
		Cols:   make([]*storage.ColumnData, len(m.batch.Cols)),
		IDs:    m.ids[:n:n],
	}
	frozen := make([]storage.ColumnData, len(m.batch.Cols)) // one allocation for every column
	for i, col := range m.batch.Cols {
		frozen[i] = *col.View(0, n)
		s.Cols[i] = &frozen[i]
	}
	if len(m.deleted) > 0 {
		s.Deletes = bitset.New(n)
		for i := range m.deleted {
			s.Deletes.Set(i)
		}
	}
	return s
}

// Col returns a frozen column by name, or nil.
func (s *MemSnapshot) Col(name string) *storage.ColumnData {
	for _, c := range s.Cols {
		if c.Def.Name == name {
			return c
		}
	}
	return nil
}

// Alive reports whether row i was not deleted at snapshot time.
func (s *MemSnapshot) Alive(i int) bool { return s.Deletes == nil || !s.Deletes.Test(i) }

// LiveBatch returns the snapshot's live rows as a RowBatch — the
// flusher feeds this through the normal ingest path. With no row
// deleted it is the frozen columns themselves, read in place; else the
// live rows are compacted into a batch of their own.
func (s *MemSnapshot) LiveBatch() *storage.RowBatch {
	src := &storage.RowBatch{Schema: s.Schema, Cols: s.Cols}
	if s.Deletes == nil {
		return src
	}
	out := storage.NewRowBatch(s.Schema)
	for i := 0; i < s.Meta.Rows; i++ {
		if s.Alive(i) {
			out.AppendRow(src, i)
		}
	}
	return out
}
