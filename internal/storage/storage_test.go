package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testSchema() *Schema {
	return &Schema{Columns: []ColumnDef{
		{Name: "id", Type: Int64Type},
		{Name: "score", Type: Float64Type},
		{Name: "label", Type: StringType},
		{Name: "ts", Type: DateTimeType},
		{Name: "embedding", Type: VectorType, Dim: 4},
	}}
}

func testBatch(n int) *RowBatch {
	b := NewRowBatch(testSchema())
	for i := 0; i < n; i++ {
		b.Col("id").Ints = append(b.Col("id").Ints, int64(i))
		b.Col("score").Floats = append(b.Col("score").Floats, float64(i)*0.5)
		b.Col("label").Strs = append(b.Col("label").Strs, []string{"cat", "dog", "owl"}[i%3])
		b.Col("ts").Ints = append(b.Col("ts").Ints, int64(1000+i))
		b.Col("embedding").Vecs = append(b.Col("embedding").Vecs,
			float32(i), float32(i)+0.1, float32(i)+0.2, float32(i)+0.3)
	}
	return b
}

func blobStores(t *testing.T) map[string]BlobStore {
	fs, err := NewFSStore(filepath.Join(t.TempDir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BlobStore{"mem": NewMemStore(), "fs": fs}
}

func TestBlobStoreBasics(t *testing.T) {
	for name, s := range blobStores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("missing"); !IsNotFound(err) {
				t.Fatalf("Get missing: %v", err)
			}
			if err := s.Put("a/b/c", []byte("hello world")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("a/b/c")
			if err != nil || string(got) != "hello world" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if sz, err := s.Size("a/b/c"); err != nil || sz != 11 {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			r, err := s.GetRange("a/b/c", 6, 5)
			if err != nil || string(r) != "world" {
				t.Fatalf("GetRange = %q, %v", r, err)
			}
			// Range past end clamps.
			r, err = s.GetRange("a/b/c", 6, 100)
			if err != nil || string(r) != "world" {
				t.Fatalf("clamped GetRange = %q, %v", r, err)
			}
			if r, err := s.GetRange("a/b/c", 50, 10); err != nil || len(r) != 0 {
				t.Fatalf("past-end GetRange = %q, %v", r, err)
			}
			if err := s.Put("a/b/d", []byte("x")); err != nil {
				t.Fatal(err)
			}
			keys, err := s.List("a/b/")
			if err != nil || len(keys) != 2 || keys[0] != "a/b/c" {
				t.Fatalf("List = %v, %v", keys, err)
			}
			if err := s.Delete("a/b/c"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("a/b/c"); !IsNotFound(err) {
				t.Fatal("key survived delete")
			}
			if err := s.Delete("never-existed"); err != nil {
				t.Fatalf("deleting missing key should be nil, got %v", err)
			}
		})
	}
}

func TestBlobPutOverwrites(t *testing.T) {
	for name, s := range blobStores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("k", []byte("one"))
			s.Put("k", []byte("two"))
			got, _ := s.Get("k")
			if string(got) != "two" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestMemStoreCopiesData(t *testing.T) {
	s := NewMemStore()
	data := []byte("abc")
	s.Put("k", data)
	data[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("Put did not copy")
	}
	got[0] = 'Y'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("Get did not copy")
	}
}

func TestRemoteStoreCountsAndCharges(t *testing.T) {
	base := NewMemStore()
	rs := NewRemoteStore(base, RemoteConfig{OpLatency: 3 * time.Millisecond})
	payload := make([]byte, 1000)
	start := time.Now()
	if err := rs.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Get("k"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 6*time.Millisecond {
		t.Fatalf("latency model not applied: %v", elapsed)
	}
	st := rs.Snapshot()
	if st.Puts != 1 || st.Gets != 1 || st.BytesWritten != 1000 || st.BytesRead != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Schema{Columns: []ColumnDef{{Name: "v", Type: VectorType}}}
	if err := bad.Validate(); err == nil {
		t.Error("vector without dim should fail")
	}
	dup := &Schema{Columns: []ColumnDef{{Name: "a", Type: Int64Type}, {Name: "a", Type: Int64Type}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate column should fail")
	}
	ord := &Schema{Columns: []ColumnDef{{Name: "a", Type: Int64Type}}, OrderBy: "zz"}
	if err := ord.Validate(); err == nil {
		t.Error("missing ORDER BY column should fail")
	}
	if (&Schema{}).Validate() == nil {
		t.Error("empty schema should fail")
	}
}

func TestParseColumnType(t *testing.T) {
	for in, want := range map[string]ColumnType{
		"UInt64": Int64Type, "Float64": Float64Type, "String": StringType,
		"DateTime": DateTimeType, "Array(Float32)": VectorType,
	} {
		got, err := ParseColumnType(in)
		if err != nil || got != want {
			t.Errorf("ParseColumnType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseColumnType("Blob"); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestWriteReadSegmentRoundTrip(t *testing.T) {
	for name, s := range blobStores(t) {
		t.Run(name, func(t *testing.T) {
			batch := testBatch(100)
			meta, err := WriteSegment(s, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, batch, 16)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Rows != 100 {
				t.Fatalf("Rows = %d", meta.Rows)
			}
			// Stats computed.
			if meta.MinInt["id"] != 0 || meta.MaxInt["id"] != 99 {
				t.Fatalf("id stats = %d..%d", meta.MinInt["id"], meta.MaxInt["id"])
			}
			if meta.MinFloat["score"] != 0 || meta.MaxFloat["score"] != 49.5 {
				t.Fatalf("score stats wrong")
			}
			if len(meta.Centroid) != 4 {
				t.Fatalf("centroid len = %d", len(meta.Centroid))
			}

			r, err := OpenSegment(s, testSchema(), "t", "seg1")
			if err != nil {
				t.Fatal(err)
			}
			for _, cn := range []string{"id", "score", "label", "ts", "embedding"} {
				col, err := r.ReadColumn(context.Background(), cn)
				if err != nil {
					t.Fatalf("ReadColumn(%s): %v", cn, err)
				}
				if col.Len() != 100 {
					t.Fatalf("%s len = %d", cn, col.Len())
				}
			}
			lbl, _ := r.ReadColumn(context.Background(), "label")
			if lbl.Strs[4] != "dog" {
				t.Fatalf("label[4] = %q", lbl.Strs[4])
			}
			emb, _ := r.ReadColumn(context.Background(), "embedding")
			if emb.Vector(7)[0] != 7 {
				t.Fatalf("embedding[7] = %v", emb.Vector(7))
			}
		})
	}
}

func TestReadRowsBlockGranular(t *testing.T) {
	base := NewMemStore()
	rs := NewRemoteStore(base, RemoteConfig{})
	batch := testBatch(100)
	if _, err := WriteSegment(rs, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, batch, 10); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(rs, testSchema(), "t", "seg1")
	if err != nil {
		t.Fatal(err)
	}
	before := rs.Snapshot().Gets
	// Rows 5 and 7 share block 0; row 95 is block 9 → exactly 2 block reads.
	col, err := r.ReadRows(context.Background(), "id", []int{5, 95, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Snapshot().Gets - before; got != 2 {
		t.Fatalf("block reads = %d, want 2", got)
	}
	want := []int64{5, 95, 7}
	for i, w := range want {
		if col.Ints[i] != w {
			t.Fatalf("ReadRows order: got %v, want %v", col.Ints, want)
		}
	}
	// Strings too (variable length blocks).
	lbl, err := r.ReadRows(context.Background(), "label", []int{0, 99})
	if err != nil {
		t.Fatal(err)
	}
	if lbl.Strs[0] != "cat" || lbl.Strs[1] != "cat" {
		t.Fatalf("labels = %v", lbl.Strs)
	}
	if _, err := r.ReadRows(context.Background(), "id", []int{100}); err == nil {
		t.Error("out-of-range row should fail")
	}
}

func TestSegmentPruning(t *testing.T) {
	m := &SegmentMeta{
		MinInt:   map[string]int64{"id": 10},
		MaxInt:   map[string]int64{"id": 20},
		MinFloat: map[string]float64{"s": 0.5},
		MaxFloat: map[string]float64{"s": 0.9},
	}
	if !m.PruneByInt("id", 30, 40) {
		t.Error("disjoint-above range should prune")
	}
	if !m.PruneByInt("id", 0, 5) {
		t.Error("disjoint-below range should prune")
	}
	if m.PruneByInt("id", 15, 35) {
		t.Error("overlapping range must not prune")
	}
	if m.PruneByInt("other", 0, 1) {
		t.Error("missing stats must not prune")
	}
	if !m.PruneByFloat("s", 0.95, 1.0) {
		t.Error("float prune failed")
	}
	if m.PruneByFloat("s", 0.6, 0.7) {
		t.Error("float overlap must not prune")
	}
}

func TestEmptySegment(t *testing.T) {
	s := NewMemStore()
	batch := NewRowBatch(testSchema())
	meta, err := WriteSegment(s, SegmentMeta{Name: "empty", Table: "t", Bucket: -1}, batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 0 {
		t.Fatalf("Rows = %d", meta.Rows)
	}
	r, err := OpenSegment(s, testSchema(), "t", "empty")
	if err != nil {
		t.Fatal(err)
	}
	col, err := r.ReadColumn(context.Background(), "id")
	if err != nil || col.Len() != 0 {
		t.Fatalf("empty column read: %d rows, %v", col.Len(), err)
	}
}

func TestRowBatchValidate(t *testing.T) {
	b := testBatch(5)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.Col("id").Ints = b.Col("id").Ints[:3] // ragged
	if err := b.Validate(); err == nil {
		t.Fatal("ragged batch should fail validation")
	}
}

func TestAppendRowAndValueString(t *testing.T) {
	src := testBatch(10)
	dst := NewRowBatch(testSchema())
	dst.AppendRow(src, 3)
	if dst.Len() != 1 {
		t.Fatalf("Len = %d", dst.Len())
	}
	if dst.Col("id").Ints[0] != 3 || dst.Col("embedding").Vector(0)[0] != 3 {
		t.Fatal("AppendRow copied wrong row")
	}
	if got := src.Col("id").ValueString(3); got != "3" {
		t.Fatalf("ValueString int = %q", got)
	}
	if got := src.Col("label").ValueString(0); got != "cat" {
		t.Fatalf("ValueString str = %q", got)
	}
}

// A view holds the rows AppendRow would copy, and appending to it copies
// instead of overwriting the rows that follow it in its source.
func TestRowBatchView(t *testing.T) {
	src := testBatch(10)
	view, want := src.View(2, 5), NewRowBatch(testSchema())
	for r := 2; r < 5; r++ {
		want.AppendRow(src, r)
	}
	if !reflect.DeepEqual(view, want) {
		t.Fatalf("view of rows [2, 5) = %+v, want %+v", view, want)
	}
	view.AppendRow(src, 9)
	if !reflect.DeepEqual(src, testBatch(10)) {
		t.Fatal("appending to a view wrote into its source")
	}
}

func TestRemoteBandwidthCharging(t *testing.T) {
	// 1 MB at 10 MB/s must take >= ~100ms even with zero op latency.
	rs := NewRemoteStore(NewMemStore(), RemoteConfig{BytesPerSecond: 10 << 20})
	payload := make([]byte, 1<<20)
	start := time.Now()
	if err := rs.Put("big", payload); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("bandwidth model not applied: %v", elapsed)
	}
	full := time.Since(start)
	// Range reads charge only the bytes transferred: far cheaper than
	// the full-blob transfer (comparative bound — absolute sleeps are
	// noisy on a loaded single-core box).
	start = time.Now()
	if _, err := rs.GetRange("big", 0, 1024); err != nil {
		t.Fatal(err)
	}
	if ranged := time.Since(start); ranged > full/2 {
		t.Fatalf("range read overcharged: %v vs full %v", ranged, full)
	}
}

func TestFSStoreListExcludesTempFiles(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.Put("a/real", []byte("x"))
	// Simulate a crashed partial write.
	os.WriteFile(filepath.Join(dir, "a", "partial.tmp"), []byte("junk"), 0o644)
	keys, err := fs.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "a/real" {
		t.Fatalf("List = %v", keys)
	}
}

func TestReadMetaErrors(t *testing.T) {
	s := NewMemStore()
	if _, err := ReadMeta(s, "t", "missing"); !IsNotFound(err) {
		t.Fatalf("missing meta: %v", err)
	}
	s.Put(MetaKey("t", "bad"), []byte("{not json"))
	if _, err := ReadMeta(s, "t", "bad"); err == nil {
		t.Fatal("corrupt meta should fail")
	}
}

func TestReadColumnUnknown(t *testing.T) {
	s := NewMemStore()
	batch := testBatch(10)
	if _, err := WriteSegment(s, SegmentMeta{Name: "s", Table: "t", Bucket: -1}, batch, 4); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(s, testSchema(), "t", "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadColumn(context.Background(), "nope"); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := r.ReadRows(context.Background(), "nope", []int{0}); err == nil {
		t.Fatal("unknown column rows should fail")
	}
}

// TestGranuleDirectory: the cumulative row start of each granule is
// derived when the metadata is opened — by the writer and by ReadMeta
// alike — and is not part of the stored format.
func TestGranuleDirectory(t *testing.T) {
	store := NewMemStore()
	written, err := WriteSegment(store, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, testBatch(25), 10)
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadMeta(store, "t", "seg1")
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*SegmentMeta{"written": written, "read back": read} {
		cm := &m.Columns[0] // granules of 10, 10 and 5 rows
		for row, want := range map[int][2]int{0: {0, 0}, 9: {0, 0}, 10: {1, 10}, 19: {1, 10}, 20: {2, 20}, 24: {2, 20}} {
			block, start, ok := cm.Granule(row)
			if !ok || block != want[0] || start != want[1] {
				t.Errorf("%s: Granule(%d) = %d, %d, %t; want %d, %d", name, row, block, start, ok, want[0], want[1])
			}
		}
		for _, row := range []int{-1, 25, 1 << 40} {
			if _, _, ok := cm.Granule(row); ok {
				t.Errorf("%s: Granule(%d) found a granule outside the column", name, row)
			}
		}
	}
	blob, err := store.Get(MetaKey("t", "seg1"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "starts") {
		t.Fatal("the granule directory leaked into meta.json")
	}
	// Metadata that never went through ReadMeta or WriteSegment has no
	// directory: every row is out of range, not a panic.
	if _, _, ok := (&ColumnMeta{Blocks: []BlockMeta{{Rows: 10}}}).Granule(3); ok {
		t.Fatal("a hand-built ColumnMeta located a row")
	}
}

// TestReadRowsManyGranules: rows in any order, with repeats, touching
// more granules than GatherRows holds inline, each fetched once.
func TestReadRowsManyGranules(t *testing.T) {
	rs := NewRemoteStore(NewMemStore(), RemoteConfig{})
	if _, err := WriteSegment(rs, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, testBatch(100), 5); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(rs, testSchema(), "t", "seg1")
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{99, 0, 50, 51, 7, 93, 12, 12, 64, 33, 28, 71, 86, 45, 19, 0, 99, 58}
	before := rs.Snapshot().Gets
	ids, err := r.ReadRows(context.Background(), "id", rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Snapshot().Gets - before; got != 14 {
		t.Fatalf("%d granule reads for 14 distinct granules", got)
	}
	emb, err := r.ReadRows(context.Background(), "embedding", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if ids.Ints[i] != int64(row) || emb.Vector(i)[0] != float32(row) {
			t.Fatalf("position %d: id %d vector %v, want row %d", i, ids.Ints[i], emb.Vector(i), row)
		}
	}
	if ids.Len() != len(rows) || emb.Len() != len(rows) {
		t.Fatalf("lengths %d/%d, want %d", ids.Len(), emb.Len(), len(rows))
	}

	g, size, err := r.ReadGranule(context.Background(), "id", 19)
	if err != nil || g.Len() != 5 || g.Ints[0] != 95 || size != 40 {
		t.Fatalf("granule 19: %v rows, first %v, %d bytes, err %v", g.Len(), g.Ints, size, err)
	}
	for _, block := range []int{-1, 20} {
		if _, _, err := r.ReadGranule(context.Background(), "id", block); err == nil {
			t.Errorf("granule %d should be out of range", block)
		}
	}
	if _, _, err := r.ReadGranule(context.Background(), "nope", 0); err == nil {
		t.Error("unknown column should fail")
	}
}

// --- granule decode -----------------------------------------------------------

// encodeGranule serializes rows [0, n) of col as one granule.
func encodeGranule(t *testing.T, col *ColumnData) []byte {
	t.Helper()
	buf, err := AppendValues(nil, col, 0, col.Len())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestDecodeBlockRoundTripAndTruncation(t *testing.T) {
	cols := []*ColumnData{
		{Def: ColumnDef{Name: "i", Type: Int64Type}, Ints: []int64{-1, 0, 1 << 40}},
		{Def: ColumnDef{Name: "t", Type: DateTimeType}, Ints: []int64{1700000000, 2}},
		{Def: ColumnDef{Name: "f", Type: Float64Type}, Floats: []float64{0.5, -2.25, 1e300}},
		// The last row is empty: the granule ends on its length prefix.
		{Def: ColumnDef{Name: "s", Type: StringType}, Strs: []string{"cat", "", "owl", ""}},
		{Def: ColumnDef{Name: "v", Type: VectorType, Dim: 3}, Vecs: []float32{1, 2, 3, -4, 5.5, 6}},
	}
	for _, col := range cols {
		data := encodeGranule(t, col)
		got := NewColumnData(col.Def)
		if _, err := DecodeValues(data, col.Def, col.Len(), got); err != nil {
			t.Fatalf("column %q: %v", col.Def.Name, err)
		}
		if !reflect.DeepEqual(got, col) {
			t.Fatalf("column %q: decoded %+v, want %+v", col.Def.Name, got, col)
		}
		// Decoding appends: a second granule lands after the first.
		if _, err := DecodeValues(data, col.Def, col.Len(), got); err != nil || got.Len() != 2*col.Len() {
			t.Fatalf("column %q: second granule: len %d, %v", col.Def.Name, got.Len(), err)
		}
		// One byte short is a typed error, never a short column. (For
		// strings the byte is missing from the last prefix.)
		short := NewColumnData(col.Def)
		if _, err := DecodeValues(data[:len(data)-1], col.Def, col.Len(), short); !errors.Is(err, ErrCorruptGranule) {
			t.Fatalf("column %q one byte short: err = %v, want ErrCorruptGranule", col.Def.Name, err)
		}
		// A row count the bytes cannot hold must be refused before
		// anything is sized from it.
		if _, err := DecodeValues(data, col.Def, 1<<40, NewColumnData(col.Def)); !errors.Is(err, ErrCorruptGranule) {
			t.Fatalf("column %q absurd row count: err = %v, want ErrCorruptGranule", col.Def.Name, err)
		}
	}
	// A string whose length prefix points past the granule.
	def := ColumnDef{Name: "s", Type: StringType}
	bad := []byte{200, 0, 0, 0, 'a', 'b'}
	if _, err := DecodeValues(bad, def, 1, NewColumnData(def)); !errors.Is(err, ErrCorruptGranule) {
		t.Fatalf("overlong string: err = %v, want ErrCorruptGranule", err)
	}
}

func TestDecodeBlockAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("slices.Grow allocates a temporary under the race detector")
	}
	col := &ColumnData{Def: ColumnDef{Name: "i", Type: Int64Type}, Ints: make([]int64, DefaultBlockRows)}
	for i := range col.Ints {
		col.Ints[i] = int64(i) * 7
	}
	data := encodeGranule(t, col)
	var dst ColumnData
	allocs := testing.AllocsPerRun(50, func() {
		dst.Ints = nil
		if _, err := DecodeValues(data, col.Def, DefaultBlockRows, &dst); err != nil || len(dst.Ints) != DefaultBlockRows {
			t.Fatalf("decoded %d rows, %v", len(dst.Ints), err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a %d-row Int64 granule makes %.0f allocations, want 1", DefaultBlockRows, allocs)
	}
}

// TestIsNotFoundAllocatesNothing: the index-cache hit path asks
// IsNotFound of every segment's load error, nil included, so it must
// not move anything to the heap.
func TestIsNotFoundAllocatesNothing(t *testing.T) {
	plain := errors.New("storage: some other failure")
	wrapped := fmt.Errorf("lsm: loading index: %w", &ErrNotFound{Key: "k"})
	joined := fmt.Errorf("%w: %w", plain, &ErrNotFound{Key: "k"})
	for _, c := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", plain, false},
		{"wrapped", wrapped, true},
		{"joined", joined, true},
	} {
		if got := IsNotFound(c.err); got != c.want {
			t.Errorf("%s: IsNotFound = %v, want %v", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { IsNotFound(c.err) }); n != 0 {
			t.Errorf("%s: IsNotFound allocates %v times per call", c.name, n)
		}
	}
}
