package bench

import (
	"context"
	"fmt"
	"time"

	"blendhouse/internal/baseline/bh"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/cluster"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
)

func init() {
	register("fig18", "Immediate query QPS while scaling the VW (vector search serving)", runFig18)
	register("fig19", "Per-worker QPS vs number of segments (compaction convergence)", runFig19)
}

// runFig18 reproduces Figure 18: QPS measured immediately after each
// scale-up step, *before* the new workers' index caches warm. With
// vector search serving, new workers contribute at once by proxying
// cold segments to their previous owners; no brute-force fallbacks
// occur. The workload is I/O-inclusive (result rows are fetched from
// the latency-modeled remote store), so added workers genuinely raise
// throughput even on one core.
func runFig18(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig18", Title: "Immediate QPS in response to scaling",
		Headers: []string{"workers", "QPS", "scaling vs 1 worker", "brute-force fallbacks"}}
	rep.Note("paper Fig 18: QPS grows ~linearly as workers join; serving lets cold workers contribute immediately")
	rep.Note("worker capacity is simulated (2 slots; 0.2ms per ANN scan + 1ms per-segment post-processing) because the host has one core; the serving behaviour — cold workers contributing immediately, zero brute-force fallbacks, scans served over loopback net/rpc — is real")
	ds := dataset.Generate(dataset.Spec{Name: "fig18", N: cfg.n(8000), Dim: 48, Queries: cfg.Queries, Seed: cfg.Seed})
	vw, tab, err := clusterFixture(cfg, 1, ds, 200*time.Microsecond, time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer vw.Close()
	if errs := vw.Preload(tab); len(errs) != 0 {
		return nil, fmt.Errorf("preload: %v", errs[0])
	}
	v, _ := tab.Acquire() // nothing writes the table: v names every segment
	defer v.Release()
	params := index.SearchParams{Ef: 32}
	// Each query ends by fetching its result rows from the
	// latency-modeled remote store (the end-to-end query of the
	// paper's workload, not a bare ANN probe). Client concurrency is
	// fixed well above VW capacity, so throughput is capacity-bound —
	// adding workers is what raises it.
	const clientConcurrency = 16
	runQuery := func(qi int) error {
		cands, err := vw.Search(context.Background(), tab, ds.Queries.Row(qi%ds.Queries.Rows()), 10, cluster.SearchOptions{Params: params})
		if err != nil {
			return err
		}
		for _, c := range cands[:minInt(3, len(cands))] {
			if _, err := v.Segment(c.Segment).Reader.ReadRows("id", []int{int(c.Offset)}); err != nil {
				return err
			}
		}
		return nil
	}
	var baseQPS float64
	for workers := 1; workers <= 4; workers++ {
		if workers > 1 {
			// Scale up WITHOUT preloading the new worker: serving must
			// cover its cold cache.
			if _, err := vw.AddWorker(fmt.Sprintf("w%d", workers-1)); err != nil {
				return nil, err
			}
		}
		timing, err := MeasureConcurrent(cfg.Queries*2, clientConcurrency, runQuery)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			baseQPS = timing.QPS
		}
		var brute int64
		for _, wid := range vw.Workers() {
			brute += vw.Worker(wid).BruteSearches.Load()
		}
		rep.AddRow(fmt.Sprint(workers), fmtQPS(timing.QPS),
			fmt.Sprintf("%.2fx", timing.QPS/baseQPS), fmt.Sprint(brute))
	}
	return rep, nil
}

// runFig19 reproduces Figure 19: hybrid-query QPS per worker as a
// function of the live segment count. A write-heavy workload
// fragments the table into many small segments; compaction merges
// them back, and QPS recovers — the paper's argument for running
// compaction in its own dedicated VW.
func runFig19(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig19", Title: "Impact of the number of segments on per-worker QPS",
		Headers: []string{"segments", "QPS"}}
	rep.Note("paper Fig 19: QPS decreases as segment count grows; compaction keeps the count converged")
	ds := dataset.Generate(dataset.Spec{Name: "fig19", N: cfg.n(8000), Dim: 96, Queries: cfg.Queries, Seed: cfg.Seed})
	n := ds.Vectors.Rows()
	// Ingest in many small batches — the extremely-high-write-rate
	// state — yielding ~32 small segments.
	s := bh.New(bh.Config{TableName: "t", SegmentRows: n/32 + 1, Seed: cfg.Seed, M: 12, EfConstr: 120}, storage.NewMemStore())
	if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, seqAttrs(n)); err != nil {
		return nil, err
	}
	params := index.SearchParams{Ef: 64}
	measure := func() (float64, error) {
		// Warm query absorbs index (re)loads after each compaction step.
		if _, err := s.Search(ds.Queries.Row(0), 10, 0, int64(n)-1, params); err != nil {
			return 0, err
		}
		t, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
			_, err := s.Search(ds.Queries.Row(qi), 10, 0, int64(n)-1, params)
			return err
		})
		return t.QPS, err
	}
	// Measure, then compact in steps, re-measuring at each bin.
	tab := s.Table()
	prevSegs := -1
	for {
		segs := tab.SegmentCount()
		if segs == prevSegs {
			break
		}
		prevSegs = segs
		qps, err := measure()
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprint(segs), fmtQPS(qps))
		if segs <= 1 {
			break
		}
		// Merge roughly a third of the rows per step so the curve has
		// several segment-count bins.
		if _, err := tab.CompactOnce(lsm.CompactionPolicy{MinSegments: 2, MaxMergeRows: n/3 + 1}); err != nil {
			return nil, err
		}
		s.Executor().InvalidateLocalIndexes()
	}
	return rep, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
