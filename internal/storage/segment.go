package storage

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// DefaultBlockRows is the granule size: the smallest unit of column
// data fetched from remote storage. The paper's READ_Opt "reduc[es]
// read granularity" — small blocks let a hybrid query fetch only the
// granules its (scattered) top-k rows live in instead of whole
// columns.
const DefaultBlockRows = 1024

// BlockMeta locates one granule inside a column blob.
type BlockMeta struct {
	Rows   int   `json:"rows"`
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
}

// ColumnMeta is the sparse ("mark") index of one column: where each
// granule lives.
type ColumnMeta struct {
	Name   string      `json:"name"`
	Blocks []BlockMeta `json:"blocks"`
	// Blob names the sibling blob holding this column's granules when
	// it is not col_<name>.bin: the segment's index blob, whose payload
	// is the indexed column's rows. Offsets then point into that blob.
	Blob string `json:"blob,omitempty"`

	// starts is the granule directory: starts[i] is the segment row
	// granule i begins at, starts[len(Blocks)] the column's row count.
	// It is derived from Blocks when the metadata is opened (ReadMeta,
	// WriteSegment) and never serialised, so a row is located by binary
	// search without rebuilding the prefix sums per read.
	starts []int
}

// buildGranuleDirectory derives every column's granule directory, and
// rejects granule addresses no writer produces — a blob outside the
// segment, granules out of order, negative or overflowing — so that
// readers can compute with them: meta.json comes from the store.
func (m *SegmentMeta) buildGranuleDirectory() error {
	for ci := range m.Columns {
		cm := &m.Columns[ci]
		cm.starts = make([]int, len(cm.Blocks)+1)
		end, outside := int64(0), strings.Contains(cm.Blob, "/")
		for i, b := range cm.Blocks {
			if outside || b.Offset < end || b.Length < 0 || b.Offset > math.MaxInt64-b.Length {
				return fmt.Errorf("%w: segment %s column %q granule at %d+%d of blob %q", ErrCorruptGranule, m.Name, cm.Name, b.Offset, b.Length, cm.Blob)
			}
			end = b.Offset + b.Length
			cm.starts[i+1] = cm.starts[i] + b.Rows
		}
	}
	return nil
}

// Granule locates a segment row in the column: the granule holding it
// and the row that granule starts at. ok is false for a row outside
// the column.
func (cm *ColumnMeta) Granule(row int) (block, start int, ok bool) {
	if len(cm.starts) == 0 || row < 0 || row >= cm.starts[len(cm.starts)-1] {
		return 0, 0, false
	}
	// Last granule whose start is <= row.
	lo, hi := 0, len(cm.Blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if cm.starts[mid] <= row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, cm.starts[lo-1], true
}

// SegmentMeta describes one immutable segment: identity, row count,
// partition placement, per-column min/max statistics for pruning, the
// semantic centroid for similarity-based pruning, and the mark index.
type SegmentMeta struct {
	Name      string `json:"name"`
	Table     string `json:"table"`
	Rows      int    `json:"rows"`
	Level     int    `json:"level"` // LSM level (compaction depth)
	Partition string `json:"partition,omitempty"`
	Bucket    int    `json:"bucket"` // semantic bucket id; -1 when unbucketed

	// Centroid is the mean vector of the segment's rows (semantic
	// partition pruning compares it to the query vector).
	Centroid []float32 `json:"centroid,omitempty"`

	// Per-column statistics for scalar pruning.
	MinInt   map[string]int64   `json:"min_int,omitempty"`
	MaxInt   map[string]int64   `json:"max_int,omitempty"`
	MinFloat map[string]float64 `json:"min_float,omitempty"`
	MaxFloat map[string]float64 `json:"max_float,omitempty"`

	Columns []ColumnMeta `json:"columns"`

	// IndexedColumn is the vector column a per-segment ANN index was
	// built for; empty when the table has no vector index.
	IndexedColumn string `json:"indexed_column,omitempty"`
	IndexType     string `json:"index_type,omitempty"`
}

// Blob key layout under a table prefix.
func segPrefix(table, seg string) string       { return "tables/" + table + "/segments/" + seg + "/" }
func MetaKey(table, seg string) string         { return segPrefix(table, seg) + "meta.json" }
func ColumnKey(table, seg, col string) string  { return segPrefix(table, seg) + "col_" + col + ".bin" }
func IndexKey(table, seg, col string) string   { return segPrefix(table, seg) + "idx_" + col + ".bin" }
func DeleteBitmapKey(table, seg string) string { return segPrefix(table, seg) + "delete.bmp" }

// columnKey resolves the blob a column's granules live in.
func (m *SegmentMeta) columnKey(cm *ColumnMeta) string {
	if cm.Blob == "" {
		return ColumnKey(m.Table, m.Name, cm.Name)
	}
	return segPrefix(m.Table, m.Name) + cm.Blob
}

// SegmentsPrefix is the listing prefix for a table's segments.
func SegmentsPrefix(table string) string { return "tables/" + table + "/segments/" }

// WriteSegment writes a whole segment: every column, then meta.json.
func WriteSegment(store BlobStore, meta SegmentMeta, batch *RowBatch, blockRows int) (*SegmentMeta, error) {
	m, err := WriteColumns(store, meta, batch, blockRows, "")
	if err != nil {
		return nil, err
	}
	return m, m.Commit(store)
}

// WriteColumns serializes batch into per-column blobs with a mark
// index, computes statistics and the centroid, and returns the metadata
// — not yet written: Commit does that, once every blob it describes
// exists. The vector column shared (if any) is neither encoded nor
// Put: its granules are cut as if its rows began at offset 0, and
// ShareColumn moves them onto the blob that holds those rows.
// blockRows <= 0 selects DefaultBlockRows.
func WriteColumns(store BlobStore, meta SegmentMeta, batch *RowBatch, blockRows int, shared string) (*SegmentMeta, error) {
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	if meta.Name == "" || meta.Table == "" {
		return nil, fmt.Errorf("storage: segment needs name and table")
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	meta.Rows = batch.Len()
	meta.MinInt = map[string]int64{}
	meta.MaxInt = map[string]int64{}
	meta.MinFloat = map[string]float64{}
	meta.MaxFloat = map[string]float64{}
	meta.Columns = make([]ColumnMeta, len(batch.Cols))

	for i, col := range batch.Cols {
		cm := &meta.Columns[i]
		cm.Name = col.Def.Name
		collectStats(&meta, col)
		if cm.Name == shared {
			width := int64(4 * col.Def.Dim)
			for start := 0; start < meta.Rows; start += blockRows {
				rows := int64(min(blockRows, meta.Rows-start))
				cm.Blocks = append(cm.Blocks, BlockMeta{Rows: int(rows), Offset: int64(start) * width, Length: rows * width})
			}
			continue
		}
		blob, blocks, err := encodeColumn(col, blockRows)
		if err != nil {
			return nil, fmt.Errorf("storage: encoding column %q: %w", cm.Name, err)
		}
		if err := store.Put(meta.columnKey(cm), blob); err != nil {
			return nil, fmt.Errorf("storage: writing column %q: %w", cm.Name, err)
		}
		cm.Blocks = blocks
	}
	if c := batch.Schema.VectorColumn(); c != nil && meta.Centroid == nil && batch.Len() > 0 {
		meta.Centroid = centroidOf(batch.Col(c.Name))
	}
	return &meta, nil
}

// ShareColumn places column col, left out by WriteColumns, on the
// sibling blob key, whose bytes from off on are the column's rows in
// the column's own encoding.
func (m *SegmentMeta) ShareColumn(col, key string, off int64) {
	for i := range m.Columns {
		if cm := &m.Columns[i]; cm.Name == col {
			cm.Blob = strings.TrimPrefix(key, segPrefix(m.Table, m.Name))
			for b := range cm.Blocks {
				cm.Blocks[b].Offset += off
			}
		}
	}
}

// Commit writes meta.json, the blob that makes the segment's directory
// describe itself — so it goes last, after every blob it names.
func (m *SegmentMeta) Commit(store BlobStore) error {
	mj, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("storage: marshaling meta: %w", err)
	}
	if err := store.Put(MetaKey(m.Table, m.Name), mj); err != nil {
		return fmt.Errorf("storage: writing meta: %w", err)
	}
	return m.buildGranuleDirectory()
}

func collectStats(meta *SegmentMeta, col *ColumnData) {
	switch col.Def.Type {
	case Int64Type, DateTimeType:
		if len(col.Ints) == 0 {
			return
		}
		mn, mx := col.Ints[0], col.Ints[0]
		for _, v := range col.Ints {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		meta.MinInt[col.Def.Name] = mn
		meta.MaxInt[col.Def.Name] = mx
	case Float64Type:
		if len(col.Floats) == 0 {
			return
		}
		mn, mx := col.Floats[0], col.Floats[0]
		for _, v := range col.Floats {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		meta.MinFloat[col.Def.Name] = mn
		meta.MaxFloat[col.Def.Name] = mx
	}
}

func centroidOf(col *ColumnData) []float32 {
	n := col.Len()
	d := col.Def.Dim
	out := make([]float32, d)
	if n == 0 {
		return out
	}
	acc := make([]float64, d)
	for i := 0; i < n; i++ {
		v := col.Vector(i)
		for j := 0; j < d; j++ {
			acc[j] += float64(v[j])
		}
	}
	for j := 0; j < d; j++ {
		out[j] = float32(acc[j] / float64(n))
	}
	return out
}

// encodeColumn serializes a column into granules and returns the blob
// plus the mark index. The blob is one buffer of exactly its size.
func encodeColumn(col *ColumnData, blockRows int) ([]byte, []BlockMeta, error) {
	buf := make([]byte, 0, col.EncodedSize())
	var blocks []BlockMeta
	n := col.Len()
	for start := 0; start < n || (n == 0 && start == 0); start += blockRows {
		end := start + blockRows
		if end > n {
			end = n
		}
		off := int64(len(buf))
		var err error
		if buf, err = AppendValues(buf, col, start, end); err != nil {
			return nil, nil, err
		}
		blocks = append(blocks, BlockMeta{Rows: end - start, Offset: off, Length: int64(len(buf)) - off})
		if n == 0 {
			break
		}
	}
	return buf, blocks, nil
}

// EncodedSize is the length of AppendValues over all of c's rows.
func (c *ColumnData) EncodedSize() int {
	switch c.Def.Type {
	case Int64Type, DateTimeType:
		return 8 * len(c.Ints)
	case Float64Type:
		return 8 * len(c.Floats)
	case StringType:
		size := 4 * len(c.Strs)
		for _, s := range c.Strs {
			size += len(s)
		}
		return size
	case VectorType:
		return 4 * len(c.Vecs)
	}
	return 0
}

// AppendValues appends rows [start, end) of col to buf, little-endian:
// an int or float as 8 bytes, a string as its uint32 length and its
// bytes, a vector as its float32s. A granule is this encoding, and so
// is each column of a WAL insert record.
func AppendValues(buf []byte, col *ColumnData, start, end int) ([]byte, error) {
	switch col.Def.Type {
	case Int64Type, DateTimeType:
		for _, v := range col.Ints[start:end] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	case Float64Type:
		for _, v := range col.Floats[start:end] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case StringType:
		for _, s := range col.Strs[start:end] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	case VectorType:
		d := col.Def.Dim
		for _, v := range col.Vecs[start*d : end*d] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	default:
		return nil, fmt.Errorf("storage: unknown column type %d", col.Def.Type)
	}
	return buf, nil
}

// ErrCorruptGranule is wrapped by every granule decode failure: the
// bytes are shorter than the rows the mark index promises.
var ErrCorruptGranule = errors.New("storage: corrupt granule")

// DecodeValues appends rows values of column def, as AppendValues
// encodes them, to dst and returns the bytes of data after them. It
// decodes straight out of data (which it only reads — it may be the
// blob tier's cached copy) into dst grown once, and checks every
// length against the bytes present before anything is sized from it.
// A granule decodes here, and so do a WAL record's columns and keys.
func DecodeValues(data []byte, def ColumnDef, rows int, dst *ColumnData) ([]byte, error) {
	width := 0
	switch def.Type {
	case Int64Type, DateTimeType, Float64Type:
		width = 8
	case StringType:
		width = 4 // the length prefix: the least a row occupies
	case VectorType:
		width = 4 * def.Dim
	default:
		return nil, fmt.Errorf("storage: unknown column type %d", def.Type)
	}
	if rows < 0 || width < 0 || (width > 0 && rows > len(data)/width) {
		return nil, fmt.Errorf("%w: %d rows of column %q need at least %d bytes each, granule has %d",
			ErrCorruptGranule, rows, def.Name, width, len(data))
	}
	switch def.Type {
	case Int64Type, DateTimeType:
		var out []int64
		dst.Ints, out = extend(dst.Ints, rows)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
	case Float64Type:
		var out []float64
		dst.Floats, out = extend(dst.Floats, rows)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	case StringType:
		dst.Strs = slices.Grow(dst.Strs, rows)
		for i := 0; i < rows; i++ {
			if len(data) < 4 {
				return nil, fmt.Errorf("%w: column %q row %d: length prefix truncated", ErrCorruptGranule, def.Name, i)
			}
			n := binary.LittleEndian.Uint32(data)
			data = data[4:]
			if uint64(n) > uint64(len(data)) {
				return nil, fmt.Errorf("%w: column %q row %d: string of %d bytes, %d remain", ErrCorruptGranule, def.Name, i, n, len(data))
			}
			dst.Strs = append(dst.Strs, string(data[:n]))
			data = data[n:]
		}
		return data, nil
	case VectorType:
		var out []float32
		dst.Vecs, out = extend(dst.Vecs, rows*def.Dim)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
	}
	return data[rows*width:], nil
}

// extend lengthens s by n elements, allocating at most once, and
// returns it with the new tail for the caller to fill.
func extend[T any](s []T, n int) (all, tail []T) {
	all = slices.Grow(s, n)[:len(s)+n]
	return all, all[len(s):]
}

// ReadMeta loads and parses a segment's metadata.
func ReadMeta(store BlobStore, table, seg string) (*SegmentMeta, error) {
	data, err := store.Get(MetaKey(table, seg))
	if err != nil {
		return nil, err
	}
	var m SegmentMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: parsing meta of %s/%s: %w", table, seg, err)
	}
	return &m, m.buildGranuleDirectory()
}

// SegmentReader reads columns of one segment, whole or block-wise: a
// stored segment's from its blobs, an in-memory one's (MemReader) from
// its columns.
type SegmentReader struct {
	Store  BlobStore
	Meta   *SegmentMeta
	Schema *Schema

	mem []*ColumnData // an in-memory segment's columns, in schema order
}

// MemReader returns a reader that serves cols, one per schema column
// in schema order, from memory: a memtable snapshot read as a segment.
func MemReader(meta *SegmentMeta, schema *Schema, cols []*ColumnData) *SegmentReader {
	return &SegmentReader{Meta: meta, Schema: schema, mem: cols}
}

// InMemory reports whether r serves its columns from memory (false for
// a nil r). Every snapshot of one memtable has the same name while its
// rows change, so nothing may cache what such a reader returns under
// that name.
func (r *SegmentReader) InMemory() bool { return r != nil && r.mem != nil }

// memColumn returns an in-memory segment's column itself.
func (r *SegmentReader) memColumn(name string) (*ColumnData, error) {
	ci, _ := r.Schema.Col(name)
	if ci < 0 {
		return nil, fmt.Errorf("storage: column %q not in schema", name)
	}
	return r.mem[ci], nil
}

// OpenSegment loads metadata and returns a reader.
func OpenSegment(store BlobStore, schema *Schema, table, seg string) (*SegmentReader, error) {
	m, err := ReadMeta(store, table, seg)
	if err != nil {
		return nil, err
	}
	return &SegmentReader{Store: store, Meta: m, Schema: schema}, nil
}

func (r *SegmentReader) colMeta(name string) (*ColumnMeta, *ColumnDef, error) {
	ci, def := r.Schema.Col(name)
	if ci < 0 {
		return nil, nil, fmt.Errorf("storage: column %q not in schema", name)
	}
	for i := range r.Meta.Columns {
		if r.Meta.Columns[i].Name == name {
			return &r.Meta.Columns[i], def, nil
		}
	}
	return nil, nil, fmt.Errorf("storage: column %q not in segment %s", name, r.Meta.Name)
}

// ReadColumn fetches an entire column with one blob read, bounded by
// ctx: a fired deadline or cancel aborts the (remote) blob read. Of a
// shared blob it fetches only the span the column's granules cover,
// not the index around it.
func (r *SegmentReader) ReadColumn(ctx context.Context, name string) (*ColumnData, error) {
	if r.mem != nil {
		return r.memColumn(name) // read-only: the caller shares it
	}
	cm, def, err := r.colMeta(name)
	if err != nil {
		return nil, err
	}
	var blob []byte
	var lo int64
	if n := len(cm.Blocks); cm.Blob == "" || n == 0 {
		blob, err = TracedGet(ctx, r.Store, r.Meta.columnKey(cm))
	} else {
		lo = cm.Blocks[0].Offset
		blob, err = tracedGetRange(ctx, r.Store, r.Meta.columnKey(cm), lo, cm.Blocks[n-1].Offset+cm.Blocks[n-1].Length-lo)
	}
	if err != nil {
		return nil, err
	}
	out := NewColumnData(*def)
	for _, b := range cm.Blocks {
		off := b.Offset - lo
		if b.Length > int64(len(blob))-off {
			return nil, fmt.Errorf("%w: column %q blob shorter than mark index", ErrCorruptGranule, name)
		}
		if _, err := DecodeValues(blob[off:off+b.Length], *def, b.Rows, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadRows fetches only the granules containing the requested row
// offsets (any order, duplicates allowed) and returns values aligned
// with rows. This is the reduced-granularity read path: remote reads
// are one GetRange per needed granule, not the whole column. ctx
// bounds each granule fetch.
func (r *SegmentReader) ReadRows(ctx context.Context, name string, rows []int) (*ColumnData, error) {
	if r.mem != nil {
		src, err := r.memColumn(name)
		if err != nil {
			return nil, err
		}
		out := NewColumnDataCap(src.Def, len(rows))
		for _, row := range rows {
			out.AppendRow(src, row)
		}
		return out, nil
	}
	return r.GatherRows(name, rows, func(block int) (*ColumnData, error) {
		cd, _, err := r.ReadGranule(ctx, name, block)
		return cd, err
	})
}

// ReadGranule fetches and decodes one granule of a column with one
// range read, returning it with its encoded size (what a cache charges
// for holding it).
func (r *SegmentReader) ReadGranule(ctx context.Context, name string, block int) (*ColumnData, int64, error) {
	cm, def, err := r.colMeta(name)
	if err != nil {
		return nil, 0, err
	}
	if block < 0 || block >= len(cm.Blocks) {
		return nil, 0, fmt.Errorf("storage: granule %d out of range [0,%d) in column %q", block, len(cm.Blocks), name)
	}
	b := cm.Blocks[block]
	blob, err := tracedGetRange(ctx, r.Store, r.Meta.columnKey(cm), b.Offset, b.Length)
	if err == nil && int64(len(blob)) < b.Length {
		err = fmt.Errorf("%w: column %q granule %d runs off its blob", ErrCorruptGranule, name, block)
	}
	if err != nil {
		return nil, 0, err
	}
	cd := NewColumnData(*def)
	if _, err := DecodeValues(blob, *def, b.Rows, cd); err != nil {
		return nil, 0, err
	}
	return cd, b.Length, nil
}

// heldGranule is one granule a GatherRows call has fetched.
type heldGranule struct {
	block, start, end int
	data              *ColumnData
}

// GatherRows assembles the requested rows of a column, in request
// order, from its granules. fetch supplies a decoded granule and is
// called once per distinct granule the rows touch — the reader fetches
// from the store, the column cache from its data space — so a caller
// that counts fetches counts distinct granules. The output is sized
// for len(rows) up front; a read touching up to eight granules
// allocates only the output.
func (r *SegmentReader) GatherRows(name string, rows []int, fetch func(block int) (*ColumnData, error)) (*ColumnData, error) {
	cm, def, err := r.colMeta(name)
	if err != nil {
		return nil, err
	}
	out := NewColumnDataCap(*def, len(rows))
	var buf [8]heldGranule
	held := buf[:0]
	cur := -1 // held granule of the previous row: runs of neighbours skip the search
	for _, row := range rows {
		if cur < 0 || row < held[cur].start || row >= held[cur].end {
			block, start, ok := cm.Granule(row)
			if !ok {
				return nil, fmt.Errorf("storage: row %d out of range in column %q of segment %s", row, name, r.Meta.Name)
			}
			cur = -1
			for i := range held {
				if held[i].block == block {
					cur = i
					break
				}
			}
			if cur < 0 {
				data, err := fetch(block)
				if err != nil {
					return nil, err
				}
				held = append(held, heldGranule{block, start, start + cm.Blocks[block].Rows, data})
				cur = len(held) - 1
			}
		}
		out.AppendRow(held[cur].data, row-held[cur].start)
	}
	return out, nil
}

// PruneByInt reports whether the segment can be skipped for a
// predicate lo <= col <= hi using min/max stats (missing stats never
// prune). Callers pass math.MinInt64 / math.MaxInt64 for open ends.
func (m *SegmentMeta) PruneByInt(col string, lo, hi int64) bool {
	mn, okMin := m.MinInt[col]
	mx, okMax := m.MaxInt[col]
	if !okMin || !okMax {
		return false
	}
	return mx < lo || mn > hi
}

// PruneByFloat is PruneByInt for float columns.
func (m *SegmentMeta) PruneByFloat(col string, lo, hi float64) bool {
	mn, okMin := m.MinFloat[col]
	mx, okMax := m.MaxFloat[col]
	if !okMin || !okMax {
		return false
	}
	return mx < lo || mn > hi
}
