package bench

import (
	"context"
	"fmt"
	"time"

	"blendhouse/internal/baseline/milvuslike"
	"blendhouse/internal/baseline/pgvectorlike"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/cache"
	"blendhouse/internal/exec"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

func init() {
	register("fig16", "Hybrid QPS under random / scalar / semantic / combined partitioning (LAION-like)", runFig16)
	register("fig17", "Workload-aware optimization breakdown: baseline vs READ_Opt vs READ_Opt+Query_Opt", runFig17)
	register("table7", "Production workload: latency & recall with and without partitioning", runTable7)
}

// laionTable builds an LSM table over the LAION-like dataset with the
// requested partitioning strategy. simbucket is the similarity
// quartile, giving the scalar partitioner tight per-segment similarity
// ranges. Segment sizing keeps the total segment count comparable
// across strategies (~16) so pruning effectiveness — not per-segment
// overhead — is what the experiment measures.
func laionTable(cfg Config, ds *dataset.Dataset, name string, scalarPart bool, buckets int, store storage.BlobStore) (*lsm.Table, error) {
	schema := &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "id", Type: storage.Int64Type},
		{Name: "simbucket", Type: storage.Int64Type},
		{Name: "similarity", Type: storage.Float64Type},
		{Name: "caption", Type: storage.StringType},
		{Name: "embedding", Type: storage.VectorType, Dim: ds.Spec.Dim},
	}}
	n := ds.Vectors.Rows()
	// Same segment-size cap for every strategy, so each variant ends
	// with ~16 segments and pruning power — not per-segment overhead —
	// is what the experiment compares. (The combined strategy has 16
	// (partition, bucket) groups, which exactly matches the cap.)
	segRows := n/16 + 1
	opts := lsm.Options{
		Name: name, Schema: schema,
		IndexColumn: "embedding", IndexType: index.HNSW,
		IndexParams: index.BuildParams{M: 12, EfConstruction: 120, Seed: cfg.Seed},
		SegmentRows: segRows, Seed: cfg.Seed,
		ClusterBuckets: buckets,
	}
	if scalarPart {
		opts.PartitionBy = []string{"simbucket"}
	}
	tab, err := lsm.Create(store, opts)
	if err != nil {
		return nil, err
	}
	batch := storage.NewRowBatch(schema)
	for i := 0; i < n; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
		sb := int64(ds.Floats[i] * 4)
		if sb > 3 {
			sb = 3
		}
		batch.Col("simbucket").Ints = append(batch.Col("simbucket").Ints, sb)
		batch.Col("similarity").Floats = append(batch.Col("similarity").Floats, ds.Floats[i])
		batch.Col("caption").Strs = append(batch.Col("caption").Strs, ds.Captions[i])
	}
	batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Data...)
	if err := tab.Insert(batch); err != nil {
		return nil, err
	}
	return tab, nil
}

// laionQuery builds the paper's LAION workload SELECT: vector search
// with a similarity range predicate and a caption regex.
func laionQuery(ds *dataset.Dataset, qi int, threshold float64, withRegex bool) *sql.Select {
	sel := &sql.Select{
		Table:   "t",
		Columns: []sql.SelectItem{{Name: "id"}},
		Where: []sql.Predicate{
			{Column: "similarity", Op: sql.OpBetween, Value: threshold, Value2: 1.0},
		},
		OrderBy: &sql.OrderBy{Distance: &sql.DistanceExpr{
			Func: "L2Distance", Column: "embedding", Query: ds.Queries.Row(qi),
		}},
		Limit:    10,
		Settings: map[string]int{"ef_search": 64},
	}
	if withRegex {
		sel.Where = append(sel.Where, sql.Predicate{Column: "caption", Op: sql.OpRegexp, Value: "^[a-z]"})
	}
	return sel
}

// runFig16 reproduces Figure 16: the LAION multi-predicate workload
// under four data-management strategies. Scalar partitioning prunes
// by similarity range; semantic partitioning prunes by centroid
// distance; the combination prunes on both axes.
func runFig16(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig16", Title: "QPS per partitioning strategy (LAION-like hybrid workload)",
		Headers: []string{"strategy", "segments (total)", "QPS"}}
	rep.Note("paper Fig 16: scalar and semantic partitioning each beat random; their combination is best")
	ds := laionLike(cfg)
	variants := []struct {
		label   string
		scalar  bool
		buckets int
	}{
		{"random (none)", false, 0},
		{"scalar", true, 0},
		{"semantic", false, 4},
		{"scalar+semantic", true, 4},
	}
	// Per-query similarity thresholds in [0.3, 0.9] — "a random range
	// between a threshold and 1.0", per the paper's LAION workload.
	thresholdOf := func(qi int) float64 { return 0.3 + 0.6*float64(qi%10)/10 }
	for _, v := range variants {
		tab, err := laionTable(cfg, ds, "t", v.scalar, v.buckets, storage.NewMemStore())
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if v.buckets > 0 {
			frac = 0.3
		}
		ccCfg := cache.DefaultColumnCacheConfig()
		ex := &exec.Executor{Table: tab, ColCache: cache.NewColumnCache(ccCfg), SemanticFraction: frac, MinSegments: 1}
		planner := plan.NewPlanner(plan.PlannerConfig{})
		// Warm index loads before measuring.
		if ph, err := planner.Plan(laionQuery(ds, 0, 0.3, false), tab); err == nil {
			if _, err := ex.Run(context.Background(), ph); err != nil {
				return nil, err
			}
		}
		timing, err := MeasureSerial(cfg.Queries*2, func(qi int) error {
			qq := qi % ds.Queries.Rows()
			ph, err := planner.Plan(laionQuery(ds, qq, thresholdOf(qq), false), tab)
			if err != nil {
				return err
			}
			_, err = ex.Run(context.Background(), ph)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow(v.label, fmt.Sprint(tab.SegmentCount()), fmtQPS(timing.QPS))
	}
	return rep, nil
}

// runFig17 reproduces Figure 17: the hybrid workload over
// latency-modeled remote storage with optimizations toggled on
// incrementally — baseline (no column cache, no plan cache/short
// circuit), READ_Opt (adaptive column cache + block-granular reads),
// READ_Opt+Query_Opt (plus plan cache and short-circuit planning).
func runFig17(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig17", Title: "Workload-aware optimization breakdown",
		Headers: []string{"variant", "QPS", "improvement"}}
	rep.Note("paper Fig 17: READ_Opt +124%%, READ_Opt+Query_Opt +206%% vs baseline; shape check = monotone improvement")
	ds := laionLike(cfg)
	store := remoteStore()
	tab, err := laionTable(cfg, ds, "t", false, 0, store)
	if err != nil {
		return nil, err
	}
	threshold := 0.3
	variants := []struct {
		label    string
		colCache bool
		planner  plan.PlannerConfig
	}{
		{"baseline", false, plan.PlannerConfig{DisablePlanCache: true, DisableShortCircuit: true}},
		{"READ_Opt", true, plan.PlannerConfig{DisablePlanCache: true, DisableShortCircuit: true}},
		{"READ_Opt+Query_Opt", true, plan.PlannerConfig{}},
	}
	var baseQPS float64
	for i, v := range variants {
		var cc *cache.ColumnCache
		if v.colCache {
			ccCfg := cache.DefaultColumnCacheConfig()
			cc = cache.NewColumnCache(ccCfg)
		}
		ex := &exec.Executor{Table: tab, ColCache: cc}
		planner := plan.NewPlanner(v.planner)
		// Queries project two scalar columns so the result-fetch I/O
		// (the read amplification of §IV-C) is on the measured path.
		mkSel := func(qi int) *sql.Select {
			sel := laionQuery(ds, qi, threshold, false)
			sel.Columns = []sql.SelectItem{{Name: "id"}, {Name: "similarity"}, {Name: "caption"}}
			return sel
		}
		// Warm one query (index loads, caches) before measuring.
		if ph, err := planner.Plan(mkSel(0), tab); err == nil {
			if _, err := ex.Run(context.Background(), ph); err != nil {
				return nil, err
			}
		}
		timing, err := MeasureSerial(cfg.Queries*4, func(qi int) error {
			ph, err := planner.Plan(mkSel(qi%ds.Queries.Rows()), tab)
			if err != nil {
				return err
			}
			_, err = ex.Run(context.Background(), ph)
			return err
		})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseQPS = timing.QPS
		}
		rep.AddRow(v.label, fmtQPS(timing.QPS), fmt.Sprintf("%+.1f%%", 100*(timing.QPS/baseQPS-1)))
	}
	return rep, nil
}

// runTable7 reproduces Table VII: the production image-search workload
// (multi-predicate filtered top-k) on BlendHouse and Milvus-like, each
// with and without partitioning, plus pgvector-like's recall collapse.
func runTable7(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "table7", Title: "Production workload: search latency and recall",
		Headers: []string{"System", "Recall", "Latency", "Speedup"}}
	rep.Note("paper Table VII: Milvus 1x, Milvus-Partition 2.38x, ByteHouse 2.32x, ByteHouse-Partition 4.21x; pgvector recall <0.35 omitted")
	ds := prodLike(cfg)
	n := ds.Vectors.Rows()
	k := 50
	// The production query: top-k among rows of one category in a
	// timestamp range (~40% of the category's rows).
	catOf := func(i int) string { return ds.Category[i] }
	tsLo := ds.TSMillis[n/4]
	tsHi := ds.TSMillis[3*n/4]
	queryCat := "animal"
	keep := func(i int) bool {
		return catOf(i) == queryCat && ds.TSMillis[i] >= tsLo && ds.TSMillis[i] <= tsHi
	}
	truth := ds.GroundTruth(datasetMetric, k, keep)

	type measured struct {
		recall  float64
		latency time.Duration
	}
	results := map[string]measured{}

	// BlendHouse variants (real engine).
	for _, part := range []bool{false, true} {
		tab, ex, planner, err := prodTable(cfg, ds, part)
		if err != nil {
			return nil, err
		}
		mkSel := func(qi int) *sql.Select {
			return &sql.Select{
				Table:   "t",
				Columns: []sql.SelectItem{{Name: "id"}},
				Where: []sql.Predicate{
					{Column: "category", Op: sql.OpEq, Value: queryCat},
					{Column: "ts", Op: sql.OpBetween, Value: tsLo, Value2: tsHi},
				},
				OrderBy: &sql.OrderBy{Distance: &sql.DistanceExpr{
					Func: "L2Distance", Column: "embedding", Query: ds.Queries.Row(qi),
				}},
				Limit:    k,
				Settings: map[string]int{"ef_search": 128},
			}
		}
		// Warm index and column caches before measuring.
		if ph, err := planner.Plan(mkSel(0), tab); err == nil {
			if _, err := ex.Run(context.Background(), ph); err != nil {
				return nil, err
			}
		}
		got := make([][]int64, ds.Queries.Rows())
		timing, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
			ph, err := planner.Plan(mkSel(qi), tab)
			if err != nil {
				return err
			}
			res, err := ex.Run(context.Background(), ph)
			if err != nil {
				return err
			}
			ids := make([]int64, len(res.Rows))
			for i, row := range res.Rows {
				ids[i] = row[0].(int64)
			}
			got[qi] = ids
			return nil
		})
		if err != nil {
			return nil, err
		}
		name := "BlendHouse"
		if part {
			name = "BlendHouse-Partition"
		}
		results[name] = measured{dataset.Recall(truth, got), timing.Mean}
	}

	// Milvus-like: global collection with its native boolean-expression
	// pre-filter. Both predicates are encoded into one attribute
	// (category index in the high digits, timestamp below), so a single
	// range covers category = c AND ts BETWEEN lo AND hi — giving the
	// stand-in Milvus's real filtering power.
	const catBase = int64(1) << 44 // ts values stay far below this
	catIdx := map[string]int64{}
	for i := 0; i < n; i++ {
		if _, ok := catIdx[catOf(i)]; !ok {
			catIdx[catOf(i)] = int64(len(catIdx))
		}
	}
	mAttrs := make([]int64, n)
	for i := range mAttrs {
		mAttrs[i] = catIdx[catOf(i)]*catBase + ds.TSMillis[i]
	}
	qCatIdx := catIdx[queryCat]
	{
		s := milvuslike.New(milvuslike.Config{SegmentRows: 1200, Seed: cfg.Seed, M: 12, EfConstruction: 120}, storage.NewMemStore())
		if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, mAttrs); err != nil {
			return nil, err
		}
		// Warm before measuring.
		if _, err := s.Search(ds.Queries.Row(0), k, qCatIdx*catBase+tsLo, qCatIdx*catBase+tsHi, index.SearchParams{Ef: 256}); err != nil {
			return nil, err
		}
		got := make([][]int64, ds.Queries.Rows())
		timing, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
			ids, err := s.Search(ds.Queries.Row(qi), k, qCatIdx*catBase+tsLo, qCatIdx*catBase+tsHi, index.SearchParams{Ef: 256})
			if err != nil {
				return err
			}
			got[qi] = ids
			return nil
		})
		if err != nil {
			return nil, err
		}
		results["Milvus"] = measured{dataset.Recall(truth, got), timing.Mean}
	}
	{
		// Partitioned: one collection per category; queries touch only
		// the matching one.
		perCat := map[string]*milvuslike.Store{}
		catRows := map[string][]int{}
		for i := 0; i < n; i++ {
			catRows[catOf(i)] = append(catRows[catOf(i)], i)
		}
		for cat, rows := range catRows {
			vecs := make([]float32, 0, len(rows)*ds.Spec.Dim)
			attrs := make([]int64, len(rows))
			for j, i := range rows {
				vecs = append(vecs, ds.Vectors.Row(i)...)
				attrs[j] = ds.TSMillis[i]
			}
			_ = cat
			s := milvuslike.New(milvuslike.Config{SegmentRows: 1200, Seed: cfg.Seed, M: 12, EfConstruction: 120}, storage.NewMemStore())
			if err := s.Load(vecs, ds.Spec.Dim, attrs); err != nil {
				return nil, err
			}
			perCat[cat] = s
		}
		rowsOf := catRows[queryCat]
		got := make([][]int64, ds.Queries.Rows())
		timing, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
			ids, err := perCat[queryCat].Search(ds.Queries.Row(qi), k, tsLo, tsHi, index.SearchParams{Ef: 256})
			if err != nil {
				return err
			}
			mapped := make([]int64, len(ids))
			for i, id := range ids {
				mapped[i] = int64(rowsOf[id]) // local → global row id
			}
			got[qi] = mapped
			return nil
		})
		if err != nil {
			return nil, err
		}
		results["Milvus-Partition"] = measured{dataset.Recall(truth, got), timing.Mean}
	}
	// pgvector-like: timestamp post-filter only; category filter also
	// applied post-hoc. Recall collapses (Table VII's "<0.35").
	{
		s := pgvectorlike.New(pgvectorlike.Config{Seed: cfg.Seed, M: 12, EfConstruction: 120}, storage.NewMemStore())
		pgAttrs := make([]int64, n)
		for i := range pgAttrs {
			pgAttrs[i] = ds.TSMillis[i]
		}
		if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, pgAttrs); err != nil {
			return nil, err
		}
		got := make([][]int64, ds.Queries.Rows())
		for qi := range got {
			ids, err := s.Search(ds.Queries.Row(qi), k, tsLo, tsHi, index.SearchParams{Ef: 128})
			if err != nil {
				return nil, err
			}
			var kept []int64
			for _, id := range ids {
				if catOf(int(id)) == queryCat {
					kept = append(kept, id)
				}
			}
			got[qi] = kept
		}
		results["pgvector"] = measured{dataset.Recall(truth, got), 0}
	}

	base := results["Milvus"].latency
	for _, name := range []string{"Milvus", "Milvus-Partition", "BlendHouse", "BlendHouse-Partition"} {
		m := results[name]
		rep.AddRow(name, fmtRecall(m.recall), fmt.Sprint(m.latency),
			fmt.Sprintf("%.2fx", float64(base)/float64(m.latency)))
	}
	rep.AddRow("pgvector", fmtRecall(results["pgvector"].recall)+" (omitted: recall collapse)", "-", "-")
	rep.Note("shape holds (BH-Partition fastest, pgvector recall lowest): %v",
		results["BlendHouse-Partition"].latency < results["Milvus"].latency &&
			results["pgvector"].recall < results["BlendHouse"].recall)
	return rep, nil
}

// prodTable builds the production-like table, partitioned by category
// and clustered into semantic buckets when part is true.
func prodTable(cfg Config, ds *dataset.Dataset, part bool) (*lsm.Table, *exec.Executor, *plan.Planner, error) {
	schema := &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "id", Type: storage.Int64Type},
		{Name: "category", Type: storage.StringType},
		{Name: "region", Type: storage.StringType},
		{Name: "ts", Type: storage.Int64Type},
		{Name: "embedding", Type: storage.VectorType, Dim: ds.Spec.Dim},
	}}
	opts := lsm.Options{
		Name: "t", Schema: schema,
		IndexColumn: "embedding", IndexType: index.HNSW,
		IndexParams: index.BuildParams{M: 12, EfConstruction: 120, Seed: cfg.Seed},
		SegmentRows: 800, Seed: cfg.Seed,
	}
	if part {
		opts.PartitionBy = []string{"category"}
		opts.ClusterBuckets = 6
	}
	tab, err := lsm.Create(storage.NewMemStore(), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	n := ds.Vectors.Rows()
	batch := storage.NewRowBatch(schema)
	for i := 0; i < n; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
		batch.Col("category").Strs = append(batch.Col("category").Strs, ds.Category[i])
		batch.Col("region").Strs = append(batch.Col("region").Strs, ds.Region[i])
		batch.Col("ts").Ints = append(batch.Col("ts").Ints, ds.TSMillis[i])
	}
	batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Data...)
	if err := tab.Insert(batch); err != nil {
		return nil, nil, nil, err
	}
	frac := 0.0
	if part {
		frac = 0.4
	}
	ccCfg := cache.DefaultColumnCacheConfig()
	ex := &exec.Executor{Table: tab, ColCache: cache.NewColumnCache(ccCfg), SemanticFraction: frac, MinSegments: 1}
	return tab, ex, plan.NewPlanner(plan.PlannerConfig{}), nil
}
