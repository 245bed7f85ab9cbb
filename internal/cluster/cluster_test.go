package cluster

import (
	"context"
	"fmt"
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

// fixture builds a table with several segments and a VW on top.
func fixture(t *testing.T, workers int, serving bool) (*VW, *lsm.Table, *dataset.Dataset) {
	t.Helper()
	remote := storage.NewMemStore()
	ds := dataset.Small(cN, cDim, 11)
	tab, err := lsm.Create(remote, lsm.Options{
		Name: "imgs",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "embedding", Type: storage.VectorType, Dim: cDim},
		}},
		IndexColumn: "embedding", IndexType: index.HNSW,
		SegmentRows: 100, PipelinedBuild: true, Seed: 5,
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
	vw := NewVW(VWConfig{Name: "vw-read", Serving: serving}, remote)
	vw.RegisterTable(tab)
	for i := 0; i < workers; i++ {
		if _, err := vw.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return vw, tab, ds
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
	vw, tab, ds := fixture(t, 3, false)
	truth := ds.GroundTruth(tab.Options().IndexParams.Metric, 10, nil)
	got := make([][]int64, ds.Queries.Rows())
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		cands, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(qi), 10, SearchOptions{
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
	vw, tab, _ := fixture(t, 4, false)
	a1 := vw.ScheduleSegments(tab, tab.Segments())
	a2 := vw.ScheduleSegments(tab, tab.Segments())
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
	vw, _, _ := fixture(t, 2, false)
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
	vw, tab, ds := fixture(t, 3, false)
	// Kill one worker; queries must still succeed (stateless workers,
	// query-level retry of paper §II-E).
	vw.Worker("w1").Fail()
	cands, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(0), 10, SearchOptions{
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
	if _, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(1), 5, SearchOptions{Params: index.SearchParams{Ef: 32}}); err != nil {
		t.Fatal(err)
	}
}

func TestAllWorkersDead(t *testing.T) {
	vw, tab, ds := fixture(t, 2, false)
	vw.Worker("w0").Fail()
	vw.Worker("w1").Fail()
	if _, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(0), 5, SearchOptions{}); err == nil {
		t.Fatal("search with no live workers should fail")
	}
}

func TestPreloadWarmsAssignedWorkers(t *testing.T) {
	vw, tab, _ := fixture(t, 3, false)
	if errs := vw.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload errors: %v", errs)
	}
	assign := vw.ScheduleSegments(tab, tab.Segments())
	for wid, segs := range assign {
		w := vw.Worker(wid)
		for _, m := range segs {
			if !w.HasIndexInMem(tab, m.Name) {
				t.Fatalf("worker %s missing preloaded index of %s", wid, m.Name)
			}
		}
	}
	// Preload must agree with scheduling: remote loads happen exactly
	// once per segment.
	var remoteLoads int64
	for _, wid := range vw.Workers() {
		remoteLoads += vw.Worker(wid).CacheStats().RemoteLoads
	}
	if remoteLoads != int64(tab.SegmentCount()) {
		t.Fatalf("remote loads = %d, want %d", remoteLoads, tab.SegmentCount())
	}
}

func TestVectorSearchServingOnScaleUp(t *testing.T) {
	vw, tab, ds := fixture(t, 2, true)
	if errs := vw.Preload(tab); len(errs) != 0 {
		t.Fatalf("preload: %v", errs)
	}
	// Scale up: w2 joins cold.
	if _, err := vw.AddWorker("w2"); err != nil {
		t.Fatal(err)
	}
	// Some segments now map to w2, whose cache is cold; serving must
	// proxy those scans to the previous owners.
	cands, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(0), 10, SearchOptions{
		Params: index.SearchParams{Ef: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 10 {
		t.Fatalf("got %d candidates", len(cands))
	}
	served := vw.Worker("w0").ServedSearches.Load() + vw.Worker("w1").ServedSearches.Load()
	moved := 0
	for _, segs := range vw.ScheduleSegments(tab, tab.Segments()) {
		_ = segs
	}
	for wid, segs := range vw.ScheduleSegments(tab, tab.Segments()) {
		if wid == "w2" {
			moved = len(segs)
		}
	}
	if moved == 0 {
		t.Skip("hash ring moved no segments to the new worker on this topology")
	}
	if served == 0 {
		t.Fatalf("no searches were served via RPC despite %d moved segments", moved)
	}
	// No brute-force fallbacks should have happened.
	for _, wid := range vw.Workers() {
		if n := vw.Worker(wid).BruteSearches.Load(); n != 0 {
			t.Fatalf("worker %s brute-forced %d times", wid, n)
		}
	}
}

func TestServingDisabledLoadsLocally(t *testing.T) {
	vw, tab, ds := fixture(t, 2, true)
	vw.Preload(tab)
	vw.AddWorker("w2")
	before := vw.Worker("w2").CacheStats().RemoteLoads
	_, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(0), 10, SearchOptions{
		Params:         index.SearchParams{Ef: 64},
		DisableServing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// w2 must have loaded its segments itself (remote or disk), not
	// proxied.
	if vw.Worker("w2").ServedSearches.Load() != 0 {
		t.Fatal("serving happened despite DisableServing")
	}
	_ = before
}

func TestTCPServingRoundTrip(t *testing.T) {
	vw, tab, ds := fixture(t, 2, true)
	vw.SetServingConfig(ServingConfig{Transport: TransportTCP})
	for _, wid := range vw.Workers() {
		if _, err := vw.Worker(wid).StartRPC(); err != nil {
			t.Fatal(err)
		}
		defer vw.Worker(wid).StopRPC()
	}
	vw.Preload(tab)
	if _, err := vw.AddWorker("w2"); err != nil {
		t.Fatal(err)
	}
	cands, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(2), 10, SearchOptions{
		Params: index.SearchParams{Ef: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 10 {
		t.Fatalf("got %d candidates over TCP serving", len(cands))
	}
}

func TestBruteForceMatchesIndexOnEasyQuery(t *testing.T) {
	vw, tab, ds := fixture(t, 1, false)
	m := tab.Segments()[0]
	w := vw.Worker("w0")
	bf, err := w.BruteForceSearch(context.Background(), tab, m, ds.Queries.Row(0), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := w.SearchSegment(context.Background(), tab, m, ds.Queries.Row(0), 5, index.SearchParams{Ef: 64}, nil)
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

func TestSearchWithFilters(t *testing.T) {
	vw, tab, ds := fixture(t, 2, false)
	// Build per-segment filters allowing only even offsets.
	filters := map[string]*bitset.Bitset{}
	for _, m := range tab.Segments() {
		f := bitset.New(m.Rows)
		for i := 0; i < m.Rows; i += 2 {
			f.Set(i)
		}
		filters[m.Name] = f
	}
	cands, err := vw.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(0), 10, SearchOptions{
		Params:  index.SearchParams{Ef: 64},
		Filters: filters,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Offset%2 != 0 {
			t.Fatalf("filtered search returned odd offset %d", c.Offset)
		}
	}
}

func TestRPCErrorPaths(t *testing.T) {
	vw, tab, ds := fixture(t, 2, true)
	vw.SetServingConfig(ServingConfig{Transport: TransportTCP})
	w0 := vw.Worker("w0")
	if _, err := w0.StartRPC(); err != nil {
		t.Fatal(err)
	}
	defer w0.StopRPC()
	svc := &SearchService{w: w0}
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
	seg := tab.Segments()[0].Name
	if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: seg, Query: ds.Queries.Row(0), K: 5, Filter: []byte{1, 2}}, &reply); err == nil {
		t.Fatal("corrupt filter should fail")
	}
	// Valid request through the service directly.
	if err := svc.Search(&SearchArgs{Table: tab.Name(), Segment: seg, Query: ds.Queries.Row(0), K: 5, Ef: 32}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.IDs) != 5 || len(reply.Dists) != 5 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestWorkerSlotsLimitConcurrency(t *testing.T) {
	remote := storage.NewMemStore()
	vw := NewVW(VWConfig{Name: "v", WorkerSlots: 1, SimulatedScanCost: 20 * time.Millisecond}, remote)
	w, err := vw.AddWorker("w0")
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent acquires with 1 slot and 20ms service time must
	// serialize to >= 40ms.
	start := time.Now()
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			release, err := w.acquire(nil)
			if err != nil {
				t.Error(err)
			} else {
				release()
			}
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	if wall := time.Since(start); wall < 35*time.Millisecond {
		t.Fatalf("slots did not serialize: %v", wall)
	}
}

func TestPreviousOwnerTracking(t *testing.T) {
	vw, tab, _ := fixture(t, 2, true)
	vw.ScheduleSegments(tab, tab.Segments())
	seg := tab.Segments()[0].Name
	ownerBefore := ""
	for wid, segs := range vw.ScheduleSegments(tab, tab.Segments()) {
		for _, m := range segs {
			if m.Name == seg {
				ownerBefore = wid
			}
		}
	}
	if _, err := vw.AddWorker("w9"); err != nil {
		t.Fatal(err)
	}
	if got := vw.PreviousOwner(tab, seg); got != ownerBefore {
		t.Fatalf("PreviousOwner = %q, want %q", got, ownerBefore)
	}
}

func TestMirroredVWFailover(t *testing.T) {
	vwA, tab, ds := fixture(t, 2, false)
	// Second replica over the same shared store.
	vwB := NewVW(VWConfig{Name: "vw-replica"}, tab.Store())
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
	if _, err := m.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(0), 10, opts); err != nil {
		t.Fatal(err)
	}
	// Kill every worker in A: queries fail over to B.
	vwA.Worker("w0").Fail()
	vwA.Worker("w1").Fail()
	res, err := m.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(1), 10, opts)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if len(res) != 10 {
		t.Fatalf("failover got %d candidates", len(res))
	}
	// Kill B too: total failure surfaces an error naming both replicas.
	vwB.Worker("r0").Fail()
	vwB.Worker("r1").Fail()
	if _, err := m.Search(context.Background(), tab, tab.Segments(), ds.Queries.Row(2), 10, opts); err == nil {
		t.Fatal("all-replica failure should error")
	}
	if _, err := NewMirroredVW(); err == nil {
		t.Fatal("empty mirror should fail")
	}
}
