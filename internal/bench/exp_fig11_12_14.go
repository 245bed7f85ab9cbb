package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/baseline"
	"blendhouse/internal/baseline/bh"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/cluster"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
)

func init() {
	register("fig11", "Latency: local cache hit vs vector-search-serving RPC vs brute force", runFig11)
	register("fig12", "Read QPS interference: isolated vs mixed read/write workload", runFig12)
	register("fig14", "Impact of updates and compaction on search performance", runFig14)
}

// clusterFixture builds a table over a latency-modeled shared store
// and a VW of that many workers on top of it, with the simulated
// per-scan and post-processing service times (non-zero only in the
// elasticity experiment; see VWConfig docs).
func clusterFixture(cfg Config, workers int, ds *dataset.Dataset, scanCost, postCost time.Duration) (*cluster.VW, *lsm.Table, error) {
	segRows := 1000
	if postCost > 0 {
		// The elasticity run wants enough segments for the hash ring to
		// balance across 4 workers.
		segRows = ds.Vectors.Rows()/24 + 1
	}
	remote := remoteStore()
	tab, err := lsm.Create(remote, lsm.Options{
		Name: "t",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "embedding", Type: storage.VectorType, Dim: ds.Spec.Dim},
		}},
		IndexColumn: "embedding", IndexType: index.HNSW,
		IndexParams: index.BuildParams{M: 12, EfConstruction: 120, Seed: cfg.Seed},
		SegmentRows: segRows, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	batch := storage.NewRowBatch(tab.Schema())
	n := ds.Vectors.Rows()
	for i := 0; i < n; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
	}
	batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Data...)
	if err := tab.Insert(batch); err != nil {
		return nil, nil, err
	}
	vw := cluster.NewVW(cluster.VWConfig{Name: "read", SimulatedScanCost: scanCost, SimulatedPostCost: postCost}, remote)
	vw.RegisterTable(tab)
	for i := 0; i < workers; i++ {
		if _, err := vw.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
			vw.Close()
			return nil, nil, err
		}
	}
	return vw, tab, nil
}

// runFig11 reproduces Figure 11: per-query latency under three
// regimes — warm local index cache, vector search serving over a real
// TCP RPC to the previous owner, and the brute-force fallback that
// reads raw vectors from remote storage. The paper measures 14.5x for
// brute force vs +16.6% for serving.
func runFig11(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig11", Title: "Latency of local search, vector search serving, brute force",
		Headers: []string{"mode", "mean latency", "vs local"}}
	rep.Note("paper Fig 11: brute force = 14.5x local; serving = +16.6%%; shape check = brute >> serving ≳ local")
	ds := dataset.Generate(dataset.Spec{Name: "fig11", N: cfg.n(8000), Dim: 96, Queries: cfg.Queries, Seed: cfg.Seed})
	vw, tab, err := clusterFixture(cfg, 2, ds, 0, 0)
	if err != nil {
		return nil, err
	}
	defer vw.Close()
	if errs := vw.Preload(tab); len(errs) != 0 {
		return nil, fmt.Errorf("preload: %v", errs[0])
	}
	params := index.SearchParams{Ef: 64}
	measure := func(opts cluster.SearchOptions) (time.Duration, error) {
		t, err := MeasureSerial(cfg.Queries, func(qi int) error {
			_, err := vw.Search(context.Background(), tab, ds.Queries.Row(qi%ds.Queries.Rows()), 10, opts)
			return err
		})
		return t.Mean, err
	}
	local, err := measure(cluster.SearchOptions{Params: params})
	if err != nil {
		return nil, err
	}
	// Scale up: w2 joins cold; its segments are proxied to previous
	// owners via the serving RPC.
	if _, err := vw.AddWorker("w2"); err != nil {
		return nil, err
	}
	serving, err := measure(cluster.SearchOptions{Params: params})
	if err != nil {
		return nil, err
	}
	brute, err := measure(cluster.SearchOptions{Params: params, ForceBruteForce: true})
	if err != nil {
		return nil, err
	}
	rep.AddRow("local (cache hit)", fmt.Sprint(local), "1.00x")
	rep.AddRow("vector search serving", fmt.Sprint(serving), fmt.Sprintf("%.2fx", float64(serving)/float64(local)))
	rep.AddRow("brute force fallback", fmt.Sprint(brute), fmt.Sprintf("%.2fx", float64(brute)/float64(local)))
	rep.Note("shape holds (brute > serving >= ~local): %v", brute > 2*serving && serving < 3*local)
	return rep, nil
}

// runFig12 reproduces Figure 12: read QPS as concurrent write load
// grows when reads and writes share a VW (mixed), vs the flat QPS of
// a dedicated read VW (isolated). The disaggregated architecture lets
// BlendHouse provision separate VWs, eliminating the interference.
func runFig12(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig12", Title: "Read QPS under mixed vs isolated write load",
		Headers: []string{"write concurrency", "isolated QPS", "mixed QPS", "mixed/isolated"}}
	rep.Note("paper Fig 12: higher write concurrency degrades mixed-VW read QPS; dedicated VWs stay flat")
	ds := dataset.Generate(dataset.Spec{Name: "fig12", N: cfg.n(6000), Dim: 96, Queries: cfg.Queries, Seed: cfg.Seed})
	n := ds.Vectors.Rows()
	readStore := bh.New(bh.Config{TableName: "read", SegmentRows: 1500, Seed: cfg.Seed, M: 12, EfConstr: 120}, storage.NewMemStore())
	if err := readStore.Load(ds.Vectors.Data, ds.Spec.Dim, seqAttrs(n)); err != nil {
		return nil, err
	}
	params := index.SearchParams{Ef: 64}
	runReads := func() (float64, error) {
		t, err := MeasureSerial(cfg.Queries*2, func(qi int) error {
			_, err := readStore.Search(ds.Queries.Row(qi%ds.Queries.Rows()), 10, baseline.AttrMin, baseline.AttrMax, params)
			return err
		})
		return t.QPS, err
	}
	// Warm index caches before any measurement.
	if _, err := runReads(); err != nil {
		return nil, err
	}
	isolated, err := runReads()
	if err != nil {
		return nil, err
	}
	writeBatchRows := 400
	for _, wc := range []int{1, 2, 4} {
		// Mixed: wc background writers ingest into a co-located table
		// while reads run (sharing the VW's CPU).
		stop := make(chan struct{})
		var writerErr atomic.Value
		var wg sync.WaitGroup
		for w := 0; w < wc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					sub := dataset.Generate(dataset.Spec{Name: "wr", N: writeBatchRows, Dim: ds.Spec.Dim, Queries: 1, Seed: cfg.Seed + int64(w*1000+round)})
					wtab := bh.New(bh.Config{TableName: fmt.Sprintf("write%d_%d", w, round), SegmentRows: writeBatchRows, Seed: cfg.Seed, M: 12, EfConstr: 120}, storage.NewMemStore())
					if err := wtab.Load(sub.Vectors.Data, ds.Spec.Dim, seqAttrs(writeBatchRows)); err != nil {
						writerErr.Store(err)
						return
					}
				}
			}(w)
		}
		mixed, err := runReads()
		close(stop)
		wg.Wait()
		if err != nil {
			return nil, err
		}
		if we := writerErr.Load(); we != nil {
			return nil, we.(error)
		}
		rep.AddRow(fmt.Sprint(wc), fmtQPS(isolated), fmtQPS(mixed), fmt.Sprintf("%.2f", mixed/isolated))
	}
	return rep, nil
}

// runFig14 reproduces Figure 14: search QPS as the fraction of
// updated rows grows (compaction disabled — delete-bitmap and version
// overhead accumulate), then after compaction (performance restored).
func runFig14(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig14", Title: "Impact of updates and compaction on search QPS",
		Headers: []string{"updated rows", "compaction", "segments", "QPS", "recall@10"}}
	rep.Note("paper Fig 14: QPS degrades as updates accumulate; compaction restores it")
	ds := dataset.Generate(dataset.Spec{Name: "fig14", N: cfg.n(6000), Dim: 96, Queries: cfg.Queries, Seed: cfg.Seed})
	n := ds.Vectors.Rows()
	s := bh.New(bh.Config{TableName: "t", SegmentRows: 1500, Seed: cfg.Seed, M: 12, EfConstr: 120}, storage.NewMemStore())
	if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, seqAttrs(n)); err != nil {
		return nil, err
	}
	truth := ds.GroundTruth(datasetMetric, 10, nil)
	params := index.SearchParams{Ef: 64}
	measure := func() (float64, float64, error) {
		// One warm query absorbs index (re)loads before timing starts.
		if _, err := s.Search(ds.Queries.Row(0), 10, baseline.AttrMin, baseline.AttrMax, params); err != nil {
			return 0, 0, err
		}
		got := make([][]int64, ds.Queries.Rows())
		t, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
			ids, err := s.Search(ds.Queries.Row(qi), 10, baseline.AttrMin, baseline.AttrMax, params)
			if err != nil {
				return err
			}
			got[qi] = ids
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		return t.QPS, dataset.Recall(truth, got), nil
	}
	// Warm caches, then take the baseline.
	if _, _, err := measure(); err != nil {
		return nil, err
	}
	qps0, r0, err := measure()
	if err != nil {
		return nil, err
	}
	rep.AddRow("0", "n/a", fmt.Sprint(s.Table().SegmentCount()), fmtQPS(qps0), fmtRecall(r0))

	tab := s.Table()
	schema := tab.Schema()
	updated := 0
	for _, frac := range []float64{0.05, 0.10, 0.20} {
		target := int(frac * float64(n))
		// Update rows [updated, target) in place: same id + same
		// vector (so ground truth stays valid), new version.
		batch := storage.NewRowBatch(schema)
		for i := updated; i < target; i++ {
			batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
			batch.Col("attr").Ints = append(batch.Col("attr").Ints, int64(i))
			batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Row(i)...)
		}
		if _, err := tab.Update("id", batch); err != nil {
			return nil, err
		}
		updated = target
		s.Executor().InvalidateLocalIndexes()
		qps, r, err := measure()
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprintf("%d%%", int(frac*100)), "disabled", fmt.Sprint(tab.SegmentCount()), fmtQPS(qps), fmtRecall(r))
	}
	// Enable compaction: merge everything, QPS restores.
	if _, err := tab.CompactAll(lsm.CompactionPolicy{MinSegments: 2, MaxMergeRows: 1 << 20}); err != nil {
		return nil, err
	}
	s.Executor().InvalidateLocalIndexes()
	qpsC, rC, err := measure()
	if err != nil {
		return nil, err
	}
	rep.AddRow("20%", "enabled", fmt.Sprint(tab.SegmentCount()), fmtQPS(qpsC), fmtRecall(rC))
	rep.Note("restored-by-compaction shape holds: %v", qpsC > qps0*0.7)
	return rep, nil
}
