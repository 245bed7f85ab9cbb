package cluster

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/bitset"
	"blendhouse/internal/exec"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	_ "blendhouse/internal/index/ivf"
	"blendhouse/internal/lsm"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

const (
	cDim = 16
	cN   = 800
)

// fixture builds an HNSW table with several segments and a VW on top.
func fixture(t *testing.T, workers int) (*VW, *lsm.Table, *dataset.Dataset) {
	t.Helper()
	return fixtureOf(t, workers, index.HNSW)
}

// fixtureOf is fixture with segments indexed by typ.
func fixtureOf(t *testing.T, workers int, typ index.Type) (*VW, *lsm.Table, *dataset.Dataset) {
	t.Helper()
	remote := storage.NewMemStore()
	ds := dataset.Small(cN, cDim, 11)
	tab, err := lsm.Create(remote, lsm.Options{
		Name: "imgs",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "embedding", Type: storage.VectorType, Dim: cDim},
		}},
		IndexColumn: "embedding", IndexType: typ,
		SegmentRows: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := storage.NewRowBatch(tab.Schema())
	for i := 0; i < cN; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
		batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Row(i)...)
	}
	// The rows go in through the table's write-ahead log, flushed into
	// segments; the log keeps running for the tests that write.
	if err := tab.EnableWAL(lsm.WALConfig{FlushInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.CloseWAL() })
	if err := tab.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	vw := NewVW(VWConfig{Name: "vw-read"}, remote)
	t.Cleanup(vw.Close)
	vw.RegisterTable(tab)
	for i := 0; i < workers; i++ {
		if _, err := vw.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return vw, tab, ds
}

// segments returns the table's current segments. Nothing writes a
// fixture's table while a test reads them, so they stay live.
func segments(tab *lsm.Table) []*lsm.Segment {
	v, segs := tab.Acquire()
	v.Release()
	return segs
}

// query is the top-k of q over tab's embedding under strategy,
// projecting id and the distance d, with ef_search 64 and the scalar
// (or distance range) predicates where.
func query(t *testing.T, tab *lsm.Table, q []float32, k int, strategy plan.Strategy, where ...sql.Predicate) *plan.Physical {
	t.Helper()
	sel := &sql.Select{
		Table: tab.Name(), Columns: []sql.SelectItem{{Name: "id"}, {Name: "d"}}, Where: where,
		OrderBy: &sql.OrderBy{Distance: l2(q), Alias: "d"},
		Limit:   k, Settings: map[string]int{"ef_search": 64},
	}
	lg, err := plan.BuildLogical(sel, tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Physical{Logical: lg, Strategy: strategy}
}

func l2(q []float32) *sql.DistanceExpr {
	return &sql.DistanceExpr{Func: "L2Distance", Column: "embedding", Query: q}
}

// run executes ph on tab through the engine's executor, its scans
// placed by p.
func run(p exec.Placement, tab *lsm.Table, ph *plan.Physical) (*exec.Result, error) {
	return (&exec.Executor{Table: tab, Placement: p}).Run(context.Background(), ph)
}

// ids runs a top-k of q on the VW's placement and returns the ids of
// its rows.
func ids(t *testing.T, p exec.Placement, tab *lsm.Table, q []float32, k int, strategy plan.Strategy) []int64 {
	t.Helper()
	res, err := run(p, tab, query(t, tab, q, k, strategy))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].(int64)
	}
	return out
}

func TestDistributedSearchMatchesOracle(t *testing.T) {
	vw, tab, ds := fixture(t, 3)
	truth := ds.GroundTruth(tab.Options().IndexParams.Metric, 10, nil)
	got := make([][]int64, ds.Queries.Rows())
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		got[qi] = ids(t, vw, tab, ds.Queries.Row(qi), 10, plan.PreFilter)
	}
	if r := dataset.Recall(truth, got); r < 0.9 {
		t.Fatalf("distributed recall = %.3f", r)
	}
}

func TestSchedulingDeterministicAndBalanced(t *testing.T) {
	vw, tab, _ := fixture(t, 4)
	a1 := vw.ScheduleSegments(tab, segments(tab))
	a2 := vw.ScheduleSegments(tab, segments(tab))
	if len(a1) == 0 {
		t.Fatal("no assignments")
	}
	for w, segs := range a1 {
		if len(a2[w]) != len(segs) {
			t.Fatal("scheduling not deterministic")
		}
	}
	total := 0
	for _, segs := range a1 {
		total += len(segs)
	}
	if total != tab.SegmentCount() {
		t.Fatalf("assigned %d of %d segments", total, tab.SegmentCount())
	}
}

func TestAddRemoveWorker(t *testing.T) {
	vw, _, _ := fixture(t, 2)
	if _, err := vw.AddWorker("w0"); err == nil {
		t.Fatal("duplicate worker should fail")
	}
	if err := vw.RemoveWorker("nope"); err == nil {
		t.Fatal("removing unknown worker should fail")
	}
	if err := vw.RemoveWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if got := vw.Workers(); len(got) != 1 || got[0] != "w0" {
		t.Fatalf("workers = %v", got)
	}
}

func TestWorkerFailureRetriesOnReplica(t *testing.T) {
	vw, tab, ds := fixture(t, 3)
	// Kill one worker; queries must still succeed (stateless workers,
	// query-level retry of paper §II-E).
	vw.Worker("w1").Fail()
	if got := ids(t, vw, tab, ds.Queries.Row(0), 10, plan.PreFilter); len(got) != 10 {
		t.Fatalf("search with dead worker: got %d rows", len(got))
	}
	// Recover and confirm it serves again.
	vw.Worker("w1").Recover()
	if got := ids(t, vw, tab, ds.Queries.Row(1), 5, plan.PreFilter); len(got) != 5 {
		t.Fatalf("got %d rows", len(got))
	}
}

func TestAllWorkersDead(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	vw.Worker("w0").Fail()
	vw.Worker("w1").Fail()
	if _, err := run(vw, tab, query(t, tab, ds.Queries.Row(0), 5, plan.PreFilter)); err == nil {
		t.Fatal("search with no live workers should fail")
	}
}

func TestPreloadWarmsAssignedWorkers(t *testing.T) {
	vw, tab, _ := fixture(t, 3)
	if errs := vw.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload errors: %v", errs)
	}
	for wid, segs := range vw.ScheduleSegments(tab, segments(tab)) {
		w := vw.Worker(wid)
		for _, seg := range segs {
			if !w.HasIndexInMem(tab, seg) {
				t.Fatalf("worker %s missing preloaded index of %s", wid, seg.Meta.Name)
			}
		}
	}
	// Preload must agree with scheduling: each segment's blob is
	// fetched from the remote store exactly once, by one worker's tier
	// (a miss of its disk level), and a tier with room for it keeps it.
	var remoteLoads int64
	for _, wid := range vw.Workers() {
		st := vw.Worker(wid).tier.TierStats()
		remoteLoads += st.DiskMisses
		if st.Declined != 0 {
			t.Fatalf("worker %s's tier declined %d preloaded blobs", wid, st.Declined)
		}
	}
	if remoteLoads != int64(tab.SegmentCount()) {
		t.Fatalf("remote loads = %d, want %d", remoteLoads, tab.SegmentCount())
	}
}

// scaleUp preloads the fixture's workers, then adds a cold one and
// returns how many segments the ring moved to it.
func scaleUp(t *testing.T, vw *VW, tab *lsm.Table) int {
	t.Helper()
	if errs := vw.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload: %v", errs)
	}
	if _, err := vw.AddWorker("cold"); err != nil {
		t.Fatal(err)
	}
	moved := len(vw.ScheduleSegments(tab, segments(tab))["cold"])
	if moved == 0 {
		t.Skip("hash ring moved no segments to the new worker on this topology")
	}
	return moved
}

func bruteSearches(vw *VW) (n int64) {
	for _, wid := range vw.Workers() {
		n += vw.Worker(wid).BruteSearches.Load()
	}
	return n
}

func servedScans(vw *VW) (n int64) {
	for _, wid := range vw.Workers() {
		n += vw.Worker(wid).ServedSearches.Load()
	}
	return n
}

func TestVectorSearchServingOnScaleUp(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	// Some segments now map to the cold worker; serving must proxy
	// those scans to the previous owners over the RPC.
	moved := scaleUp(t, vw, tab)
	if got := ids(t, vw, tab, ds.Queries.Row(0), 10, plan.PreFilter); len(got) != 10 {
		t.Fatalf("got %d rows", len(got))
	}
	if servedScans(vw) == 0 {
		t.Fatalf("no searches were served via RPC despite %d moved segments", moved)
	}
	if n := bruteSearches(vw); n != 0 {
		t.Fatalf("%d brute-force fallbacks", n)
	}
}

// TestTCPServingRoundTrip checks that a query whose scans are served
// over the RPC answers exactly what it answers locally.
func TestTCPServingRoundTrip(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	ph := query(t, tab, ds.Queries.Row(2), 10, plan.PreFilter)
	local, err := run(vw, tab, ph)
	if err != nil {
		t.Fatal(err)
	}
	scaleUp(t, vw, tab)
	got, err := run(vw, tab, ph)
	if err != nil {
		t.Fatal(err)
	}
	if servedScans(vw) == 0 {
		t.Fatal("no scan was served")
	}
	if !reflect.DeepEqual(local, got) {
		t.Fatalf("served result %v, local %v", got.Rows, local.Rows)
	}
}

// TestDeletedRowsNeverResurface deletes the top hit and searches again
// with the scan served over the RPC after a scale-up, on plan A's exact
// path, and on the index path: the deleted row must never come back.
func TestDeletedRowsNeverResurface(t *testing.T) {
	vw, tab, _ := fixture(t, 2)
	scaleUp(t, vw, tab)
	// The query is row 0 of a segment the ring moved to the cold
	// worker: it is its own top hit, and its scan is served.
	seg := vw.ScheduleSegments(tab, segments(tab))["cold"][0]
	row, err := seg.Reader.ReadRows(context.Background(), "embedding", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	q := slices.Clone(row.Vector(0))
	top := ids(t, vw, tab, q, 10, plan.PreFilter)[0]
	if n, err := tab.DeleteByKey(context.Background(), "id", []int64{top}); err != nil || n != 1 {
		t.Fatalf("delete %d: n=%d err=%v", top, n, err)
	}
	check := func(what string, ids []int64) {
		t.Helper()
		if len(ids) != 10 || slices.Contains(ids, top) {
			t.Fatalf("%s: deleted id %d in %v", what, top, ids)
		}
	}
	before := servedScans(vw)
	check("served", ids(t, vw, tab, q, 10, plan.PreFilter))
	if servedScans(vw) == before {
		t.Fatal("no scan was served after the scale-up")
	}
	check("brute force", ids(t, vw, tab, q, 10, plan.BruteForce))
	if errs := vw.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload: %v", errs)
	}
	before = servedScans(vw)
	check("index", ids(t, vw, tab, q, 10, plan.PreFilter))
	if servedScans(vw) != before {
		t.Fatal("a scan was served after the cold worker preloaded")
	}
}

// TestUnflushedRowsAreSearched: a memtable segment is scanned with its
// own flat index, its deletes subtracted, on the index and exact paths.
func TestUnflushedRowsAreSearched(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	q := ds.Queries.Row(0)
	batch := storage.NewRowBatch(tab.Schema())
	batch.Col("id").Ints = append(batch.Col("id").Ints, 9999)
	batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, q...)
	if err := tab.Insert(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	top := func(strategy plan.Strategy) []any {
		t.Helper()
		res, err := run(vw, tab, query(t, tab, q, 3, strategy))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0]
	}
	strategies := []plan.Strategy{plan.PreFilter, plan.BruteForce}
	for _, st := range strategies {
		if row := top(st); row[0] != int64(9999) || row[1] != 0.0 {
			t.Fatalf("%v: top hit %v, want the unflushed row", st, row)
		}
	}
	if n, err := tab.DeleteByKey(context.Background(), "id", []int64{9999}); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	for _, st := range strategies {
		if row := top(st); row[1] == 0.0 {
			t.Fatalf("%v: deleted unflushed row returned: %v", st, row)
		}
	}
}

// TestMissingIndexFallsBackToExactScan: a segment whose index blob is
// missing is scanned exactly, by the engine's node and by a VW alike,
// and a corrupt blob is an error, never an answer.
func TestMissingIndexFallsBackToExactScan(t *testing.T) {
	vw, tab, ds := fixtureOf(t, 1, index.HNSWSQ)
	ctx := context.Background()
	seg := segments(tab)[0]
	w := vw.Worker("w0")
	q := ds.Queries.Row(0)
	want, err := exactIndex(t, seg).SearchWithFilter(q, 5, nil, index.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	key := tab.IndexKeyOf(seg.Meta.Name)
	blob, err := tab.Store().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	blob = slices.Clone(blob)
	if err := tab.Store().Delete(key); err != nil {
		t.Fatal(err)
	}
	ix, err := w.searcher(ctx, tab, seg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SearchWithFilter(q, 5, nil, index.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	if w.BruteSearches.Load() != 1 || !slices.Equal(got, want) {
		t.Fatalf("missing index: %d brute searches, got %v want %v", w.BruteSearches.Load(), got, want)
	}
	ph := query(t, tab, q, 5, plan.PreFilter)
	onEngine, err := run(lsm.NewIndexCache(tab.Store()), tab, ph)
	if err != nil {
		t.Fatalf("missing index on the engine's node: %v", err)
	}
	onVW, err := run(vw, tab, ph)
	if err != nil || !reflect.DeepEqual(onVW, onEngine) {
		t.Fatalf("missing index on a VW: %v\n got  %v\n want %v", err, onVW, onEngine)
	}
	if w.BruteSearches.Load() != 2 {
		t.Fatalf("%d brute searches after the VW's query, want 2", w.BruteSearches.Load())
	}
	if err := tab.Store().Put(key, blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := run(vw, tab, query(t, tab, q, 5, plan.PreFilter)); err == nil {
		t.Fatal("a corrupt index blob must fail the scan")
	}
}

func TestBruteForceMatchesIndexOnEasyQuery(t *testing.T) {
	vw, tab, ds := fixture(t, 1)
	bf := ids(t, vw, tab, ds.Queries.Row(0), 5, plan.BruteForce)
	ix := ids(t, vw, tab, ds.Queries.Row(0), 5, plan.PreFilter)
	if len(bf) != 5 || len(ix) != 5 {
		t.Fatalf("lens %d/%d", len(bf), len(ix))
	}
	// Exact scan is ground truth; HNSW on easy data should agree on
	// the top hit.
	if bf[0] != ix[0] {
		t.Fatalf("top-1 disagrees: brute %d vs index %d", bf[0], ix[0])
	}
}

// exactIndex is a flat index over seg's vector column with the row
// offsets as ids: the exact scan a segment without an index blob gets.
func exactIndex(t *testing.T, seg *lsm.Segment) index.Index {
	t.Helper()
	col, err := seg.Reader.ReadColumn(context.Background(), "embedding")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.New(index.Flat, index.BuildParams{Dim: cDim}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, seg.Meta.Rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(col.Vecs, ids); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestSearchWithFilters: a segment scan returns only rows its allow
// bitset admits, on the index path, the exact path and over the RPC.
func TestSearchWithFilters(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	ctx := context.Background()
	seg := segments(tab)[0]
	even := bitset.New(seg.Meta.Rows)
	for i := 0; i < seg.Meta.Rows; i += 2 {
		even.Set(i)
	}
	w := vw.Worker("w0")
	q := ds.Queries.Row(0)
	p := index.SearchParams{Ef: 64}
	ix, err := w.searcher(ctx, tab, seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []index.Index{ix, exactIndex(t, seg)} {
		cands, err := ix.SearchWithFilter(q, 10, even, p)
		if err != nil {
			t.Fatal(err)
		}
		checkEven(t, cands)
	}
	served, err := vw.serve(ctx, w, tab, seg, q, 10, p, even)
	if err != nil {
		t.Fatal(err)
	}
	checkEven(t, served)
}

func checkEven(t *testing.T, cands []index.Candidate) {
	t.Helper()
	if len(cands) != 10 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for _, c := range cands {
		if c.ID%2 != 0 {
			t.Fatalf("filtered search returned odd offset %d", c.ID)
		}
	}
}

func TestRPCErrorPaths(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	svc := &SearchService{w: vw.Worker("w0")}
	var reply SearchReply
	// Unknown table.
	if err := svc.Search(&SearchArgs{Table: "nope", Segment: "x", Query: ds.Queries.Row(0), K: 5}, &reply); err == nil {
		t.Fatal("unknown table should fail")
	}
	// Unknown segment.
	if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: "nope", Query: ds.Queries.Row(0), K: 5}, &reply); err == nil {
		t.Fatal("unknown segment should fail")
	}
	// Corrupt filter bytes; a length of 2^64-1; set bits past the
	// length; a filter shorter than the segment.
	seg := segments(tab)[0]
	pastLen, _ := bitset.New(1).MarshalBinary()
	pastLen[8], pastLen[9] = 0xff, 0xff
	short, _ := bitset.NewFull(seg.Meta.Rows - 1).MarshalBinary()
	for what, filter := range map[string][]byte{
		"corrupt": {1, 2}, "negative length": bytes.Repeat([]byte{0xff}, 8),
		"bits past length": pastLen, "short": short,
	} {
		if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: seg.Meta.Name, Query: ds.Queries.Row(0), K: 5, Filter: filter}, &reply); err == nil {
			t.Fatalf("%s filter should fail, answered %v", what, reply.Cands)
		}
	}
	// Valid request through the service directly.
	if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: seg.Meta.Name, Query: ds.Queries.Row(0), K: 5, Params: index.SearchParams{Ef: 32}}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Cands) != 5 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestWorkerSlotsLimitConcurrency(t *testing.T) {
	vw := NewVW(VWConfig{Name: "v", SimulatedScanCost: 20 * time.Millisecond}, storage.NewMemStore())
	t.Cleanup(vw.Close)
	w, err := vw.AddWorker("w0")
	if err != nil {
		t.Fatal(err)
	}
	// Three concurrent acquires on 2 slots with a 20ms service time:
	// the third waits for a slot, so the wall is >= 40ms.
	start := time.Now()
	done := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		go func() {
			if err := w.occupy(context.Background(), vw.cfg.SimulatedScanCost); err != nil {
				t.Error(err)
			} else {
				<-w.slots
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	if wall := time.Since(start); wall < 35*time.Millisecond {
		t.Fatalf("slots did not serialize: %v", wall)
	}
}

func TestPreviousOwnerTracking(t *testing.T) {
	vw, tab, _ := fixture(t, 2)
	seg := segments(tab)[0]
	ownerBefore := ""
	for wid, segs := range vw.ScheduleSegments(tab, segments(tab)) {
		if slices.Contains(segs, seg) {
			ownerBefore = wid
		}
	}
	if _, err := vw.AddWorker("w9"); err != nil {
		t.Fatal(err)
	}
	if got := vw.PreviousOwner(tab, seg.Meta.Name); got != ownerBefore {
		t.Fatalf("PreviousOwner = %q, want %q", got, ownerBefore)
	}
}

// TestServingSurvivesCompaction: a requester's pinned Version may name
// a segment that a compaction has since retired from the current one.
// The previous owner still holds its index and answers the served scan
// as it answers the same scan locally.
func TestServingSurvivesCompaction(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	ctx := context.Background()
	pw := vw.Worker("w0")
	v, segs := tab.Acquire()
	defer v.Release()
	seg := segs[0]
	q, p := ds.Queries.Row(1), index.SearchParams{Ef: 64}
	ix, err := pw.searcher(ctx, tab, seg) // loads the index into pw
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.SearchWithFilter(q, 10, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tab.CompactAll(lsm.CompactionPolicy{MinSegments: 2}); err != nil || n == 0 {
		t.Fatalf("compaction merged %d (%v)", n, err)
	}
	if slices.ContainsFunc(tab.Segments(), func(m *storage.SegmentMeta) bool { return m.Name == seg.Meta.Name }) {
		t.Fatalf("%s still live after compaction", seg.Meta.Name)
	}
	got, err := vw.serve(ctx, pw, tab, seg, q, 10, p, nil)
	if err != nil {
		t.Fatalf("serving a retired but pinned segment: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("served %v, local %v", got, want)
	}
}

// A worker's handle of a segment goes when the segment retires: a
// compaction replaces it, and the last Version naming it is released.
func TestWorkerDropsRetiredSegmentsIndex(t *testing.T) {
	vw, tab, _ := fixture(t, 1)
	w := vw.Worker("w0")
	v, segs := tab.Acquire()
	seg := segs[0]
	if _, err := w.searcher(context.Background(), tab, seg); err != nil {
		t.Fatal(err)
	}
	if !w.HasIndexInMem(tab, seg) {
		t.Fatalf("worker holds no index of %s after searching it", seg.Meta.Name)
	}
	if n, err := tab.CompactAll(lsm.CompactionPolicy{MinSegments: 2}); err != nil || n == 0 {
		t.Fatalf("compaction merged %d (%v)", n, err)
	}
	if !w.HasIndexInMem(tab, seg) {
		t.Fatalf("handle of %s dropped while a Version names it", seg.Meta.Name)
	}
	v.Release()
	if w.HasIndexInMem(tab, seg) {
		t.Fatalf("worker still holds the index of retired %s", seg.Meta.Name)
	}
}

func TestMirroredVWFailover(t *testing.T) {
	vwA, tab, ds := fixture(t, 2)
	// Second replica over the same shared store.
	vwB := NewVW(VWConfig{Name: "vw-replica"}, tab.Store())
	t.Cleanup(vwB.Close)
	vwB.RegisterTable(tab)
	for i := 0; i < 2; i++ {
		if _, err := vwB.AddWorker(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMirroredVW(vwA, vwB)
	if err != nil {
		t.Fatal(err)
	}
	if errs := m.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload: %v", errs)
	}
	q := func(qi int) (*exec.Result, error) {
		return run(m, tab, query(t, tab, ds.Queries.Row(qi), 10, plan.PreFilter))
	}
	// Healthy primary: served by A.
	if _, err := q(0); err != nil {
		t.Fatal(err)
	}
	// Kill every worker in A: queries fail over to B.
	vwA.Worker("w0").Fail()
	vwA.Worker("w1").Fail()
	res, err := q(1)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("failover got %d rows", len(res.Rows))
	}
	// Kill B too: total failure surfaces an error naming both replicas.
	vwB.Worker("r0").Fail()
	vwB.Worker("r1").Fail()
	if _, err := q(2); err == nil {
		t.Fatal("all-replica failure should error")
	}
	if _, err := NewMirroredVW(); err == nil {
		t.Fatal("empty mirror should fail")
	}
}

// TestVWMatchesEngine: on a table with deleted rows and an unflushed
// memtable, plans A, B and C and a range search with a scalar
// predicate answer on a VW of 1 worker, of 3, and of 3 right after a
// cold scale-up (its top-k scans served) exactly the rows the engine's
// own node answers.
func TestVWMatchesEngine(t *testing.T) {
	_, tab, ds := fixture(t, 0)
	ctx := context.Background()
	batch := storage.NewRowBatch(tab.Schema())
	for i := 0; i < 40; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(cN+i))
		batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Row(3*i)...)
	}
	if err := tab.Insert(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if n, err := tab.DeleteByKey(ctx, "id", []int64{5, 150, 333, 420, 777, cN + 7}); err != nil || n != 6 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if len(segments(tab)) == tab.SegmentCount() {
		t.Fatal("no memtable segment")
	}
	newVW := func(workers int) *VW {
		vw := NewVW(VWConfig{Name: fmt.Sprint("vw", workers)}, tab.Store())
		t.Cleanup(vw.Close)
		vw.RegisterTable(tab)
		for i := 0; i < workers; i++ {
			if _, err := vw.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return vw
	}
	engine := lsm.NewIndexCache(tab.Store())
	pred := sql.Predicate{Column: "id", Op: sql.OpLt, Value: int64(700)}
	q := ds.Queries.Row(4)
	for _, c := range []struct {
		name string
		ph   *plan.Physical
	}{
		{"plan A", query(t, tab, q, 10, plan.BruteForce, pred)},
		{"plan B", query(t, tab, q, 10, plan.PreFilter, pred)},
		{"plan C", query(t, tab, q, 10, plan.PostFilter, pred)},
		{"range", query(t, tab, q, 0, plan.PreFilter, pred, sql.Predicate{Distance: l2(q), Op: sql.OpLt, Value: 0.45})},
	} {
		want, err := run(engine, tab, c.ph)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) < 5 {
			t.Fatalf("%s: the engine answers %d rows", c.name, len(want.Rows))
		}
		cold := newVW(2)
		scaleUp(t, cold, tab)
		for what, vw := range map[string]*VW{"1 worker": newVW(1), "3 workers": newVW(3), "cold scale-up": cold} {
			got, err := run(vw, tab, c.ph)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, what, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s:\n got  %v\n want %v", c.name, what, got.Rows, want.Rows)
			}
		}
		if c.name == "plan B" && servedScans(cold) == 0 {
			t.Fatal("plan B served no scan after the cold scale-up")
		}
	}
}

// Workers that join and leave do not stay on the tables they served:
// a removed worker's cache is dropped from every table's list.
func TestScaleCyclesLeaveNoWatchers(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("c%d", i)
		if _, err := vw.AddWorker(id); err != nil {
			t.Fatal(err)
		}
		if errs := vw.Preload(tab); len(errs) != 0 {
			t.Fatalf("preload: %v", errs)
		}
		ids(t, vw, tab, ds.Queries.Row(i), 10, plan.PreFilter)
		if err := vw.RemoveWorker(id); err != nil {
			t.Fatal(err)
		}
	}
	if n, live := tab.Watchers(), len(vw.Workers()); n > live {
		t.Fatalf("%d caches watch the table, %d workers are live", n, live)
	}
}
