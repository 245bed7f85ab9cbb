package bench

import (
	"fmt"

	"blendhouse/internal/baseline"
	"blendhouse/internal/baseline/bh"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
)

func init() {
	register("fig9", "QPS at recall@0.99 across systems and workloads", runFig9)
	register("fig10", "Recall vs QPS curves for BlendHouse, Milvus-like, pgvector-like", runFig10)
	register("fig15", "QPS with CBO enabled vs disabled (paper's 1%-selectivity workload)", runFig15)
}

// workloadSpec is one VectorBench-style workload: a filter keeping
// fraction s of the rows (1 = unfiltered pure vector search).
type workloadSpec struct {
	label string
	s     float64
}

// The paper's three workloads. Its "1% selectivity" label means 1% of
// rows are filtered OUT (s=0.99); "99% selectivity" keeps only 1%.
var paperWorkloads = []workloadSpec{
	{"vector-search", 1},
	{"hybrid-1%", 0.99},
	{"hybrid-99%", 0.01},
}

// runFig9 reproduces Figure 9: tune each system to recall@10 ≥ 0.99,
// then measure QPS, for each workload × dataset.
func runFig9(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig9", Title: "QPS at recall@0.99",
		Headers: []string{"dataset", "workload", "system", "ef", "recall", "QPS"}}
	rep.Note("paper Fig 9: BlendHouse highest QPS on all six panels; pgvector recall <10%% on hybrid-99%% (post-filter only)")
	for _, mk := range []struct {
		label string
		make  func() *dataset.Dataset
	}{
		{"cohere-like", func() *dataset.Dataset { return cohereLike(cfg) }},
		{"openai-like", func() *dataset.Dataset { return openaiLike(cfg) }},
	} {
		ds := mk.make()
		n := ds.Vectors.Rows()
		systems := systemSet(cfg, 1000, fastStore)
		if _, err := loadAll(systems, ds); err != nil {
			return nil, err
		}
		for _, w := range paperWorkloads {
			lo, hi := baseline.AttrMin, baseline.AttrMax
			var keep func(i int) bool
			if w.s < 1 {
				lo, hi = selRange(n, w.s)
				lo2, hi2 := lo, hi
				keep = func(i int) bool { return int64(i) >= lo2 && int64(i) <= hi2 }
			}
			for _, name := range systemOrder {
				s := systems[name]
				ef, recall, err := TuneEfForRecall(0.99, efLadder, func(ef int) (float64, error) {
					return SearchRecall(s, ds, 10, lo, hi, keep, index.SearchParams{Ef: ef, Nprobe: ef / 8})
				})
				if err != nil {
					return nil, err
				}
				p := index.SearchParams{Ef: ef, Nprobe: ef / 8}
				timing, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
					_, err := s.Search(ds.Queries.Row(qi), 10, lo, hi, p)
					return err
				})
				if err != nil {
					return nil, err
				}
				qps := fmtQPS(timing.QPS)
				if recall < 0.5 {
					qps += " (excluded: recall collapse)"
				}
				rep.AddRow(mk.label, w.label, name, fmt.Sprint(ef), fmtRecall(recall), qps)
			}
		}
	}
	return rep, nil
}

// runFig10 reproduces Figure 10: full recall-QPS curves on the
// Cohere-like dataset (unfiltered), one series per system.
func runFig10(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig10", Title: "Recall vs QPS (vector search, cohere-like)",
		Headers: []string{"system", "ef", "recall@10", "QPS"}}
	rep.Note("paper Fig 10: BlendHouse dominates across the recall range; all systems trade QPS for recall as ef grows")
	ds := cohereLike(cfg)
	systems := systemSet(cfg, 1000, fastStore)
	if _, err := loadAll(systems, ds); err != nil {
		return nil, err
	}
	truth := ds.GroundTruth(datasetMetric, 10, nil)
	for _, name := range systemOrder {
		s := systems[name]
		// Warm caches so the first ladder point isn't penalized.
		if _, err := s.Search(ds.Queries.Row(0), 10, baseline.AttrMin, baseline.AttrMax, index.SearchParams{Ef: 16}); err != nil {
			return nil, err
		}
		for _, ef := range efLadder {
			p := index.SearchParams{Ef: ef}
			got := make([][]int64, ds.Queries.Rows())
			timing, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
				ids, err := s.Search(ds.Queries.Row(qi), 10, baseline.AttrMin, baseline.AttrMax, p)
				if err != nil {
					return err
				}
				got[qi] = ids
				return nil
			})
			if err != nil {
				return nil, err
			}
			rep.AddRow(name, fmt.Sprint(ef), fmtRecall(dataset.Recall(truth, got)), fmtQPS(timing.QPS))
		}
	}
	return rep, nil
}

// runFig15 reproduces Figure 15: the paper's 1%-selectivity hybrid
// workload (s=0.99) with the cost-based optimizer on vs off. With CBO
// the planner picks post-filter; without it the default pre-filter
// pays a full-table structured scan per query.
func runFig15(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig15", Title: "QPS at recall@0.99 with and without the CBO",
		Headers: []string{"dataset", "CBO", "strategy", "QPS"}}
	rep.Note("paper Fig 15: CBO picks post-filter and wins on the 1%%-selectivity workload; CBO-off defaults to pre-filter")
	rep.Note("row counts are larger (dims smaller) than the other experiments: the pre/post-filter gap is a big-n effect — the structured scan over all rows is what post-filtering avoids")
	for _, mk := range []struct {
		label string
		rows  int
	}{
		{"32k x 32d", 32000},
		{"48k x 32d", 48000},
	} {
		ds := dataset.Generate(dataset.Spec{Name: "fig15", N: cfg.n(mk.rows), Dim: 32,
			Queries: cfg.Queries, Seed: cfg.Seed, WithInts: true})
		n := ds.Vectors.Rows()
		lo, hi := selRange(n, 0.99)
		for _, mode := range []struct {
			label   string
			planner plan.PlannerConfig
		}{
			{"on", plan.PlannerConfig{}},
			{"off", plan.PlannerConfig{DisableCBO: true}},
		} {
			s := bh.New(bh.Config{
				TableName: "t", SegmentRows: 8000, Seed: cfg.Seed,
				M: 8, EfConstr: 60, Planner: mode.planner,
			}, storage.NewMemStore())
			if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, seqAttrs(n)); err != nil {
				return nil, err
			}
			p := index.SearchParams{Ef: 32}
			// Warm (index loads) before measuring.
			if _, err := s.Search(ds.Queries.Row(0), 10, lo, hi, p); err != nil {
				return nil, err
			}
			timing, err := MeasureSerial(cfg.Queries*3, func(qi int) error {
				_, err := s.Search(ds.Queries.Row(qi%ds.Queries.Rows()), 10, lo, hi, p)
				return err
			})
			if err != nil {
				return nil, err
			}
			// Recover which strategy the planner picked.
			strategy := "post-filter"
			if mode.planner.DisableCBO {
				strategy = "pre-filter (default)"
			}
			rep.AddRow(mk.label, mode.label, strategy, fmtQPS(timing.QPS))
		}
	}
	return rep, nil
}
