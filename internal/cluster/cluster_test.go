package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	_ "blendhouse/internal/index/ivf"
	"blendhouse/internal/lsm"
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
	if err := tab.Insert(batch); err != nil {
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

// globalSearch runs a distributed search over all segments and maps
// (segment, offset) back to the id column for recall checks.
func globalIDs(t *testing.T, vw *VW, tab *lsm.Table, cands []SegmentCandidate) []int64 {
	t.Helper()
	out := make([]int64, 0, len(cands))
	v, _ := tab.Acquire()
	defer v.Release()
	for _, c := range cands {
		seg := v.Segment(c.Segment)
		if seg == nil {
			t.Fatalf("segment %q not live", c.Segment)
		}
		col, err := seg.Reader.ReadRows("id", []int{int(c.Offset)})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, col.Ints[0])
	}
	return out
}

func TestDistributedSearchMatchesOracle(t *testing.T) {
	vw, tab, ds := fixture(t, 3)
	truth := ds.GroundTruth(tab.Options().IndexParams.Metric, 10, nil)
	got := make([][]int64, ds.Queries.Rows())
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		cands, err := vw.Search(context.Background(), tab, ds.Queries.Row(qi), 10, SearchOptions{
			Params: index.SearchParams{Ef: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		got[qi] = globalIDs(t, vw, tab, cands)
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
	cands, err := vw.Search(context.Background(), tab, ds.Queries.Row(0), 10, SearchOptions{
		Params: index.SearchParams{Ef: 64},
	})
	if err != nil {
		t.Fatalf("search with dead worker: %v", err)
	}
	if len(cands) != 10 {
		t.Fatalf("got %d candidates", len(cands))
	}
	// Recover and confirm it serves again.
	vw.Worker("w1").Recover()
	if _, err := vw.Search(context.Background(), tab, ds.Queries.Row(1), 5, SearchOptions{Params: index.SearchParams{Ef: 32}}); err != nil {
		t.Fatal(err)
	}
}

func TestAllWorkersDead(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	vw.Worker("w0").Fail()
	vw.Worker("w1").Fail()
	if _, err := vw.Search(context.Background(), tab, ds.Queries.Row(0), 5, SearchOptions{}); err == nil {
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

func TestVectorSearchServingOnScaleUp(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	// Some segments now map to the cold worker; serving must proxy
	// those scans to the previous owners over the RPC.
	moved := scaleUp(t, vw, tab)
	cands, err := vw.Search(context.Background(), tab, ds.Queries.Row(0), 10, SearchOptions{
		Params: index.SearchParams{Ef: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 10 {
		t.Fatalf("got %d candidates", len(cands))
	}
	served := vw.Worker("w0").ServedSearches.Load() + vw.Worker("w1").ServedSearches.Load()
	if served == 0 {
		t.Fatalf("no searches were served via RPC despite %d moved segments", moved)
	}
	if n := bruteSearches(vw); n != 0 {
		t.Fatalf("%d brute-force fallbacks", n)
	}
}

// TestTCPServingRoundTrip checks that a scan served over the RPC
// answers exactly what the same scan answers locally.
func TestTCPServingRoundTrip(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	opts := SearchOptions{Params: index.SearchParams{Ef: 64}}
	local, err := vw.Search(context.Background(), tab, ds.Queries.Row(2), 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	scaleUp(t, vw, tab)
	served, err := vw.Search(context.Background(), tab, ds.Queries.Row(2), 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if vw.Worker("w0").ServedSearches.Load()+vw.Worker("w1").ServedSearches.Load() == 0 {
		t.Fatal("no scan was served")
	}
	if !slices.Equal(local, served) {
		t.Fatalf("served result %v, local %v", served, local)
	}
}

// TestDeletedRowsNeverResurface deletes the top hit and searches again
// with the scan served over the RPC after a scale-up, on the exact
// path, and on the index path: the deleted row must never come back.
func TestDeletedRowsNeverResurface(t *testing.T) {
	vw, tab, _ := fixture(t, 2)
	scaleUp(t, vw, tab)
	// The query is row 0 of a segment the ring moved to the cold
	// worker: it is its own top hit, and its scan is served.
	seg := vw.ScheduleSegments(tab, segments(tab))["cold"][0]
	row, err := seg.Reader.ReadRows("embedding", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	q := slices.Clone(row.Vector(0))
	search := func(brute bool) []int64 {
		t.Helper()
		cands, err := vw.Search(context.Background(), tab, q, 10, SearchOptions{
			Params: index.SearchParams{Ef: 64}, ForceBruteForce: brute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return globalIDs(t, vw, tab, cands)
	}
	served := func() int64 {
		return vw.Worker("w0").ServedSearches.Load() + vw.Worker("w1").ServedSearches.Load()
	}
	top := search(false)[0]
	if n, err := tab.DeleteByKey("id", []int64{top}); err != nil || n != 1 {
		t.Fatalf("delete %d: n=%d err=%v", top, n, err)
	}
	check := func(what string, ids []int64) {
		t.Helper()
		if len(ids) != 10 || slices.Contains(ids, top) {
			t.Fatalf("%s: deleted id %d in %v", what, top, ids)
		}
	}
	before := served()
	check("served", search(false))
	if served() == before {
		t.Fatal("no scan was served after the scale-up")
	}
	check("brute force", search(true))
	if errs := vw.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload: %v", errs)
	}
	before = served()
	check("index", search(false))
	if served() != before {
		t.Fatal("a scan was served after the cold worker preloaded")
	}
}

// TestUnflushedRowsAreSearched: a memtable segment is scanned with its
// own flat index, its deletes subtracted, on the index and exact paths.
func TestUnflushedRowsAreSearched(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	if err := tab.EnableWAL(lsm.WALConfig{FlushInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.CloseWAL() })
	q := ds.Queries.Row(0)
	batch := storage.NewRowBatch(tab.Schema())
	batch.Col("id").Ints = append(batch.Col("id").Ints, 9999)
	batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, q...)
	if err := tab.InsertCtx(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	top := func(brute bool) SegmentCandidate {
		t.Helper()
		cands, err := vw.Search(context.Background(), tab, q, 3, SearchOptions{
			Params: index.SearchParams{Ef: 64}, ForceBruteForce: brute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cands[0]
	}
	for _, brute := range []bool{false, true} {
		if c := top(brute); c.Dist != 0 || !strings.HasPrefix(c.Segment, "~mem") {
			t.Fatalf("brute=%v: top hit %+v, want the unflushed row", brute, c)
		}
	}
	if n, err := tab.DeleteByKey("id", []int64{9999}); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	for _, brute := range []bool{false, true} {
		if c := top(brute); c.Dist == 0 {
			t.Fatalf("brute=%v: deleted unflushed row returned: %+v", brute, c)
		}
	}
}

// TestMissingIndexFallsBackToExactScan: a segment whose index blob is
// missing is scanned exactly, and a corrupt blob is an error, never an
// answer.
func TestMissingIndexFallsBackToExactScan(t *testing.T) {
	vw, tab, ds := fixtureOf(t, 1, index.HNSWSQ)
	seg := segments(tab)[0]
	w := vw.Worker("w0")
	q := ds.Queries.Row(0)
	want, err := w.SearchSegment(context.Background(), tab, seg, q, 5, index.SearchParams{}, nil, true)
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
	before := w.BruteSearches.Load()
	got, err := w.SearchSegment(context.Background(), tab, seg, q, 5, index.SearchParams{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.BruteSearches.Load() != before+1 || !slices.Equal(got, want) {
		t.Fatalf("missing index: brute searches %d → %d, got %v want %v", before, w.BruteSearches.Load(), got, want)
	}
	if err := tab.Store().Put(key, blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.SearchSegment(context.Background(), tab, seg, q, 5, index.SearchParams{}, nil, false); err == nil {
		t.Fatal("a corrupt index blob must fail the scan")
	}
}

func TestBruteForceMatchesIndexOnEasyQuery(t *testing.T) {
	vw, tab, ds := fixture(t, 1)
	seg := segments(tab)[0]
	w := vw.Worker("w0")
	bf, err := w.SearchSegment(context.Background(), tab, seg, ds.Queries.Row(0), 5, index.SearchParams{}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := w.SearchSegment(context.Background(), tab, seg, ds.Queries.Row(0), 5, index.SearchParams{Ef: 64}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf) != 5 || len(ix) != 5 {
		t.Fatalf("lens %d/%d", len(bf), len(ix))
	}
	// Exact scan is ground truth; HNSW on easy data should agree on
	// the top hit.
	if bf[0].ID != ix[0].ID {
		t.Fatalf("top-1 disagrees: brute %d vs index %d", bf[0].ID, ix[0].ID)
	}
}

// TestSearchWithFilters: a segment scan returns only rows its allow
// bitset admits, on the index path, the exact path and over the RPC.
func TestSearchWithFilters(t *testing.T) {
	vw, tab, ds := fixture(t, 2)
	seg := segments(tab)[0]
	even := bitset.New(seg.Meta.Rows)
	for i := 0; i < seg.Meta.Rows; i += 2 {
		even.Set(i)
	}
	w := vw.Worker("w0")
	q := ds.Queries.Row(0)
	p := index.SearchParams{Ef: 64}
	for _, brute := range []bool{false, true} {
		cands, err := w.SearchSegment(context.Background(), tab, seg, q, 10, p, even, brute)
		if err != nil {
			t.Fatal(err)
		}
		checkEven(t, cands)
	}
	served, err := vw.serve(context.Background(), w, tab, seg, q, 10, p, even)
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
	// Corrupt filter bytes.
	seg := segments(tab)[0].Meta.Name
	if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: seg, Query: ds.Queries.Row(0), K: 5, Filter: []byte{1, 2}}, &reply); err == nil {
		t.Fatal("corrupt filter should fail")
	}
	// Valid request through the service directly.
	if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: seg, Query: ds.Queries.Row(0), K: 5, Params: index.SearchParams{Ef: 32}}, &reply); err != nil {
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
			release, err := w.acquire(context.Background())
			if err != nil {
				t.Error(err)
			} else {
				release()
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
	want, err := pw.SearchSegment(ctx, tab, seg, q, 10, p, nil, false) // loads the index into pw
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
	opts := SearchOptions{Params: index.SearchParams{Ef: 64}}
	// Healthy primary: served by A.
	if _, err := m.Search(context.Background(), tab, ds.Queries.Row(0), 10, opts); err != nil {
		t.Fatal(err)
	}
	// Kill every worker in A: queries fail over to B.
	vwA.Worker("w0").Fail()
	vwA.Worker("w1").Fail()
	res, err := m.Search(context.Background(), tab, ds.Queries.Row(1), 10, opts)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if len(res) != 10 {
		t.Fatalf("failover got %d candidates", len(res))
	}
	// Kill B too: total failure surfaces an error naming both replicas.
	vwB.Worker("r0").Fail()
	vwB.Worker("r1").Fail()
	if _, err := m.Search(context.Background(), tab, ds.Queries.Row(2), 10, opts); err == nil {
		t.Fatal("all-replica failure should error")
	}
	if _, err := NewMirroredVW(); err == nil {
		t.Fatal("empty mirror should fail")
	}
}
