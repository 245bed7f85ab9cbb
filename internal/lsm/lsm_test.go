package lsm

import (
	"context"
	"math"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	_ "blendhouse/internal/index/ivf"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

const (
	lDim = 16
	lN   = 600
)

func testOptions(name string) Options {
	return Options{
		Name: name,
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "label", Type: storage.StringType},
			{Name: "score", Type: storage.Float64Type},
			{Name: "embedding", Type: storage.VectorType, Dim: lDim},
		}},
		IndexColumn: "embedding",
		IndexType:   index.HNSW,
		SegmentRows: 200,
		BlockRows:   64,
		Seed:        7,
	}
}

func fillBatch(t *testing.T, opts Options, ds *dataset.Dataset, startID, n int) *storage.RowBatch {
	t.Helper()
	b := storage.NewRowBatch(opts.Schema)
	labels := []string{"animal", "city", "food"}
	for i := 0; i < n; i++ {
		id := startID + i
		b.Col("id").Ints = append(b.Col("id").Ints, int64(id))
		b.Col("label").Strs = append(b.Col("label").Strs, labels[id%3])
		b.Col("score").Floats = append(b.Col("score").Floats, float64(id%100)/100)
		b.Col("embedding").Vecs = append(b.Col("embedding").Vecs, ds.Vectors.Row(id%ds.Vectors.Rows())...)
	}
	return b
}

func newTestTable(t *testing.T, opts Options) (*Table, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Small(lN, lDim, 3)
	// BH_CHAOS=1 re-runs every table test over fault-injected storage
	// behind the retry layer (see storage.MaybeChaosFromEnv).
	tab, err := Create(storage.MaybeChaosFromEnv(storage.NewMemStore()), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tab, ds
}

func TestCreateValidation(t *testing.T) {
	store := storage.NewMemStore()
	opts := testOptions("t1")
	if _, err := Create(store, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(store, opts); err == nil {
		t.Fatal("duplicate create should fail")
	}
	bad := testOptions("t2")
	bad.IndexColumn = "label"
	if _, err := Create(store, bad); err == nil {
		t.Fatal("index on non-vector column should fail")
	}
	bad2 := testOptions("t3")
	bad2.PartitionBy = []string{"missing"}
	if _, err := Create(store, bad2); err == nil {
		t.Fatal("partition on missing column should fail")
	}
	bad3 := testOptions("t4")
	bad3.Schema = &storage.Schema{Columns: []storage.ColumnDef{{Name: "id", Type: storage.Int64Type}}}
	bad3.IndexColumn = ""
	bad3.ClusterBuckets = 4
	if _, err := Create(store, bad3); err == nil {
		t.Fatal("CLUSTER BY without vector column should fail")
	}
}

func TestInsertCreatesSegmentsAndIndexes(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("t"))
	ingest(t, tab, fillBatch(t, tab.Options(), ds, 0, 500))
	// 500 rows / 200 per segment = 3 segments.
	if got := tab.SegmentCount(); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	if got := tab.Rows(); got != 500 {
		t.Fatalf("rows = %d", got)
	}
	for _, m := range tab.Segments() {
		ix, err := tab.OpenIndex(m.Name)
		if err != nil {
			t.Fatalf("OpenIndex(%s): %v", m.Name, err)
		}
		if ix.Count() != m.Rows {
			t.Fatalf("index of %s has %d vectors, segment %d rows", m.Name, ix.Count(), m.Rows)
		}
		// IDs are row offsets: search must return offsets < Rows.
		res, err := ix.SearchWithFilter(ds.Queries.Row(0), 5, nil, index.SearchParams{Ef: 32})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res {
			if c.ID < 0 || c.ID >= int64(m.Rows) {
				t.Fatalf("index id %d outside segment rows %d", c.ID, m.Rows)
			}
		}
	}
}

func TestOpenRestoresCatalog(t *testing.T) {
	store := storage.NewMemStore()
	opts := testOptions("t")
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Small(lN, lDim, 3)
	ingest(t, tab, fillBatch(t, opts, ds, 0, 450))
	re, err := Open(store, "t")
	if err != nil {
		t.Fatal(err)
	}
	if re.SegmentCount() != tab.SegmentCount() || re.Rows() != 450 {
		t.Fatalf("reopened: %d segments, %d rows", re.SegmentCount(), re.Rows())
	}
	if re.Options().IndexType != index.HNSW || re.Schema().VectorColumn() == nil {
		t.Fatal("options/schema lost on reopen")
	}
	if _, err := Open(store, "missing"); err == nil {
		t.Fatal("opening missing table should fail")
	}
}

func TestScalarPartitioning(t *testing.T) {
	opts := testOptions("t")
	opts.PartitionBy = []string{"label"}
	tab, ds := newTestTable(t, opts)
	ingest(t, tab, fillBatch(t, opts, ds, 0, 300))
	parts := map[string]int{}
	for _, m := range tab.Segments() {
		parts[m.Partition] += m.Rows
	}
	if len(parts) != 3 {
		t.Fatalf("partitions = %v", parts)
	}
	for p, n := range parts {
		if n != 100 {
			t.Fatalf("partition %q has %d rows, want 100", p, n)
		}
	}
	// Every segment's rows must share the partition value.
	for _, seg := range liveSegments(tab) {
		m := seg.Meta
		col, err := seg.Reader.ReadColumn("label")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range col.Strs {
			if s != m.Partition {
				t.Fatalf("segment %s partition %q contains row label %q", m.Name, m.Partition, s)
			}
		}
	}
}

func TestSemanticBuckets(t *testing.T) {
	opts := testOptions("t")
	opts.ClusterBuckets = 4
	tab, ds := newTestTable(t, opts)
	ingest(t, tab, fillBatch(t, opts, ds, 0, 400))
	if tab.Centroids() == nil || tab.Centroids().Rows() != 4 {
		t.Fatal("centroids not trained")
	}
	buckets := map[int]bool{}
	for _, m := range tab.Segments() {
		if m.Bucket < 0 || m.Bucket >= 4 {
			t.Fatalf("segment bucket %d out of range", m.Bucket)
		}
		buckets[m.Bucket] = true
		// Rows must actually be nearest their bucket's centroid.
		col, err := tab.current().Segment(m.Name).Reader.ReadColumn("embedding")
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < col.Len(); r++ {
			best := -1
			bestD := float32(math.MaxFloat32)
			for c := 0; c < 4; c++ {
				d := vec.L2Squared(col.Vector(r), tab.Centroids().Row(c))
				if d < bestD {
					best, bestD = c, d
				}
			}
			if best != m.Bucket {
				t.Fatalf("row in bucket %d is nearest centroid %d", m.Bucket, best)
			}
		}
	}
	if len(buckets) < 2 {
		t.Fatal("clustered data should fill at least 2 buckets")
	}
}

func TestDeleteByKey(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("t"))
	ingest(t, tab, fillBatch(t, tab.Options(), ds, 0, 300))
	n, err := tab.DeleteByKey(context.Background(), "id", []int64{5, 10, 250})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d, want 3", n)
	}
	if tab.Rows() != 297 || tab.DeletedRows() != 3 {
		t.Fatalf("rows=%d deleted=%d", tab.Rows(), tab.DeletedRows())
	}
	// Idempotent.
	n, err = tab.DeleteByKey(context.Background(), "id", []int64{5})
	if err != nil || n != 0 {
		t.Fatalf("re-delete: n=%d err=%v", n, err)
	}
	// Bitmap persisted: reopen and check.
	re, err := Open(tab.Store(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if re.Rows() != 297 {
		t.Fatalf("reopened rows = %d, want 297", re.Rows())
	}
	if _, err := tab.DeleteByKey(context.Background(), "label", []int64{1}); err == nil {
		t.Fatal("delete by non-integer column should fail")
	}
	if _, err := tab.DeleteByKey(context.Background(), "nope", []int64{1}); err == nil {
		t.Fatal("delete by missing column should fail")
	}
}

func TestUpdateSupersedesRows(t *testing.T) {
	opts := testOptions("t")
	tab, ds := newTestTable(t, opts)
	ingest(t, tab, fillBatch(t, opts, ds, 0, 200))
	before := tab.SegmentCount()
	// Update rows 0..49 with new embeddings (shifted ids map to other vectors).
	upd := fillBatch(t, opts, ds, 0, 50)
	for i := range upd.Col("score").Floats {
		upd.Col("score").Floats[i] = 9.99
	}
	superseded, err := tab.Update(context.Background(), "id", upd)
	if err != nil {
		t.Fatal(err)
	}
	if superseded != 50 {
		t.Fatalf("superseded = %d, want 50", superseded)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 200 {
		t.Fatalf("rows = %d, want 200 (old deleted, new inserted)", tab.Rows())
	}
	if tab.SegmentCount() <= before {
		t.Fatal("update should add a new version segment")
	}
	if tab.DeletedRows() != 50 {
		t.Fatalf("deleted = %d", tab.DeletedRows())
	}
}

func TestCompactionMergesAndDropsDeletes(t *testing.T) {
	opts := testOptions("t")
	opts.SegmentRows = 100
	tab, ds := newTestTable(t, opts)
	// 5 inserts of 100 rows → 5 segments in one group.
	for i := 0; i < 5; i++ {
		ingest(t, tab, fillBatch(t, opts, ds, i*100, 100))
	}
	if _, err := tab.DeleteByKey(context.Background(), "id", []int64{1, 101, 201}); err != nil {
		t.Fatal(err)
	}
	merged, err := tab.CompactOnce(CompactionPolicy{MinSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if merged != 5 {
		t.Fatalf("merged %d segments, want 5", merged)
	}
	if tab.SegmentCount() != 1 {
		t.Fatalf("segments after compaction = %d", tab.SegmentCount())
	}
	if tab.Rows() != 497 {
		t.Fatalf("rows after compaction = %d, want 497", tab.Rows())
	}
	if tab.DeletedRows() != 0 {
		t.Fatal("delete bitmaps should be gone after compaction")
	}
	m := tab.Segments()[0]
	if m.Level != 1 {
		t.Fatalf("compacted level = %d, want 1", m.Level)
	}
	// Fresh index over the merged segment.
	ix, err := tab.OpenIndex(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 497 {
		t.Fatalf("compacted index has %d vectors", ix.Count())
	}
	// Old segment blobs should be cleaned from the store.
	keys, _ := tab.Store().List(storage.SegmentsPrefix("t"))
	for _, k := range keys {
		if len(k) > 0 && !contains(k, m.Name) {
			t.Fatalf("stale blob %s survived compaction", k)
		}
	}
	// Nothing more to compact.
	if n, err := tab.CompactOnce(CompactionPolicy{MinSegments: 4}); err != nil || n != 0 {
		t.Fatalf("second compaction: n=%d err=%v", n, err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCompactionRespectsGroups(t *testing.T) {
	opts := testOptions("t")
	opts.PartitionBy = []string{"label"}
	opts.SegmentRows = 50
	tab, ds := newTestTable(t, opts)
	for i := 0; i < 4; i++ {
		ingest(t, tab, fillBatch(t, opts, ds, i*90, 90))
	}
	if _, err := tab.CompactAll(CompactionPolicy{MinSegments: 2}); err != nil {
		t.Fatal(err)
	}
	// After compaction no segment may mix partitions.
	for _, seg := range liveSegments(tab) {
		m := seg.Meta
		col, err := seg.Reader.ReadColumn("label")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range col.Strs {
			if s != m.Partition {
				t.Fatalf("compaction mixed partition %q with row %q", m.Partition, s)
			}
		}
	}
	if tab.Rows() != 360 {
		t.Fatalf("rows = %d", tab.Rows())
	}
}

func TestAutoIndexParamsTrackSegmentSize(t *testing.T) {
	opts := testOptions("t")
	opts.IndexType = index.IVFFlat
	opts.AutoIndex = true
	opts.IndexParams = index.BuildParams{} // let rules pick Nlist
	opts.SegmentRows = 500
	tab, ds := newTestTable(t, opts)
	ingest(t, tab, fillBatch(t, opts, ds, 0, 500))
	p := tab.buildParamsFor(index.IVFFlat, 500)
	if p.Nlist != 12 { // 4*sqrt(500)=89 capped by 500/39=12
		t.Fatalf("auto Nlist = %d, want 12", p.Nlist)
	}
	p2 := tab.buildParamsFor(index.IVFFlat, 100000)
	if p2.Nlist <= p.Nlist {
		t.Fatalf("Nlist must grow with N: %d vs %d", p2.Nlist, p.Nlist)
	}
	// Index loads back with the same derived params.
	m := tab.Segments()[0]
	if _, err := tab.OpenIndex(m.Name); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSelectivity(t *testing.T) {
	h := newHistogram()
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	h.add(vals)
	if s := h.Selectivity(0, 999); math.Abs(s-1) > 0.01 {
		t.Fatalf("full range selectivity = %v", s)
	}
	if s := h.Selectivity(0, 99); math.Abs(s-0.1) > 0.03 {
		t.Fatalf("10%% range selectivity = %v", s)
	}
	if s := h.Selectivity(2000, 3000); s != 0 {
		t.Fatalf("out-of-range selectivity = %v", s)
	}
	// Widening rescale keeps total mass.
	h.add([]float64{5000})
	if s := h.Selectivity(math.Inf(-1), math.Inf(1)); math.Abs(s-1) > 0.01 {
		t.Fatalf("post-rescale full selectivity = %v", s)
	}
	// nil histogram: conservative 1.
	var nilH *Histogram
	if nilH.Selectivity(0, 1) != 1 {
		t.Fatal("nil histogram should report selectivity 1")
	}
}

func TestTableHistogramsFeedEstimates(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("t"))
	ingest(t, tab, fillBatch(t, tab.Options(), ds, 0, 400))
	s := tab.EstimateIntSelectivity("id", 0, 39) // 40 of 400 = 10%
	if math.Abs(s-0.1) > 0.05 {
		t.Fatalf("id selectivity = %v, want ~0.1", s)
	}
	sAll := tab.EstimateIntSelectivity("id", math.MinInt64, math.MaxInt64)
	if math.Abs(sAll-1) > 0.01 {
		t.Fatalf("unbounded selectivity = %v", sAll)
	}
	sf := tab.EstimateFloatSelectivity("score", 0, 0.5)
	if sf <= 0.3 || sf > 0.8 {
		t.Fatalf("score selectivity = %v", sf)
	}
	if tab.HistogramFor("label") != nil {
		t.Fatal("string column should have no histogram")
	}
}

func TestEmptyInsertIsNoop(t *testing.T) {
	tab, _ := newTestTable(t, testOptions("t"))
	ingest(t, tab, storage.NewRowBatch(tab.Schema()))
	if tab.SegmentCount() != 0 {
		t.Fatal("empty insert created segments")
	}
}

func TestCompactionCapKeepsUnmergedSegmentsLive(t *testing.T) {
	opts := testOptions("t")
	opts.SegmentRows = 100
	tab, ds := newTestTable(t, opts)
	for i := 0; i < 6; i++ {
		ingest(t, tab, fillBatch(t, opts, ds, i*100, 100))
	}
	// Cap the merge at ~2 segments' worth of rows.
	merged, err := tab.CompactOnce(CompactionPolicy{MinSegments: 2, MaxMergeRows: 150})
	if err != nil {
		t.Fatal(err)
	}
	if merged < 2 || merged >= 6 {
		t.Fatalf("merged %d segments, want a partial merge", merged)
	}
	// No rows may be lost: partial compaction must preserve the total.
	if tab.Rows() != 600 {
		t.Fatalf("rows after capped compaction = %d, want 600", tab.Rows())
	}
}

func TestCompactionBuildsIVFIndex(t *testing.T) {
	opts := testOptions("t")
	opts.IndexType = index.IVFFlat
	opts.AutoIndex = true
	opts.IndexParams = index.BuildParams{}
	opts.SegmentRows = 150
	// The merged 600 rows are under autoindex.MinIndexRows: keep IVF on
	// every segment so that compaction builds one.
	opts.indexEverySegment = true
	tab, ds := newTestTable(t, opts)
	for i := 0; i < 4; i++ {
		ingest(t, tab, fillBatch(t, opts, ds, i*150, 150))
	}
	merged, err := tab.CompactOnce(CompactionPolicy{MinSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if merged != 4 {
		t.Fatalf("merged %d", merged)
	}
	// The compacted segment's index must load and search fine with the
	// rule-based parameters for its merged row count.
	m := tab.Segments()[0]
	if m.Level != 1 || index.Type(m.IndexType) != index.IVFFlat {
		t.Fatalf("level = %d, index type %q", m.Level, m.IndexType)
	}
	ix, err := tab.OpenIndex(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 600 {
		t.Fatalf("count = %d", ix.Count())
	}
	res, err := ix.SearchWithFilter(ds.Queries.Row(0), 5, nil, index.SearchParams{Nprobe: 8})
	if err != nil || len(res) != 5 {
		t.Fatalf("compacted-index search: %d results, %v", len(res), err)
	}
}

// ingest writes b to tab as serve does — through the table's WAL,
// started on first use and stopped when the test ends — and flushes
// it, so b's rows are in segments when it returns.
func ingest(t testing.TB, tab *Table, b *storage.RowBatch) {
	t.Helper()
	if tab.walRT.Load() == nil {
		if err := tab.EnableWAL(walTestConfig()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tab.CloseWAL() })
	}
	if err := tab.Insert(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
}
