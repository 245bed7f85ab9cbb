package bench

import (
	"fmt"
	"time"

	"blendhouse/internal/autoindex"
	"blendhouse/internal/baseline"
	"blendhouse/internal/baseline/bh"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/core"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
)

func init() {
	register("fig7", "IVF search time vs rows N for different K_IVF (auto-index motivation)", runFig7)
	register("table4", "Load time of BlendHouse vs Milvus vs pgvector (pipelined vs staged ingestion)", runTable4)
	register("table5", "Load time of BH-HNSW / BH-HNSWSQ / BH-IVFPQFS", runTable5)
	register("table6", "Memory consumption of BH-HNSW / BH-HNSWSQ / BH-IVFPQFS", runTable6)
	register("fig13", "Recall vs QPS of different vector index types", runFig13)
}

// runFig7 reproduces Figure 7: for each dataset size N, search time as
// a function of K_IVF, demonstrating that the optimal K grows with N —
// the motivation for rule-based auto-index parameter selection
// (K ≈ 4·√N). Paper sweeps K∈{4k,16k,65k} on millions of rows; we
// sweep a scaled ladder.
func runFig7(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig7", Title: "IVF search time vs N per K_IVF",
		Headers: []string{"N", "K_IVF", "mean search", "recall@10", "auto K (rule)"}}
	rep.Note("paper: K_IVF ∈ {4096,16384,65536} on 1M+ rows; scaled ladder here; shape = optimal K grows with N")
	dims := 48
	sizes := []int{cfg.n(1000), cfg.n(4000), cfg.n(16000)}
	ks := []int{4, 16, 64, 256}
	for _, n := range sizes {
		ds := dataset.Generate(dataset.Spec{Name: "fig7", N: n, Dim: dims, Queries: cfg.Queries, Seed: cfg.Seed})
		truth := ds.GroundTruth(datasetMetric, 10, nil)
		bestK, bestT := 0, time.Duration(1<<62)
		type row struct {
			k      int
			mean   time.Duration
			recall float64
		}
		var rows []row
		for _, k := range ks {
			if k*8 > n { // skip degenerate configs
				continue
			}
			ix, err := index.New(index.IVFFlat, index.BuildParams{Dim: dims, Nlist: k, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			if err := ix.Train(ds.Vectors.Data); err != nil {
				return nil, err
			}
			ids := seqAttrs(n)
			if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
				return nil, err
			}
			// nprobe fixed: the K trade-off is coarse-scan vs list-scan.
			p := index.SearchParams{Nprobe: 8}
			got := make([][]int64, ds.Queries.Rows())
			timing, err := MeasureSerial(ds.Queries.Rows(), func(qi int) error {
				res, err := ix.SearchWithFilter(ds.Queries.Row(qi), 10, nil, p)
				if err != nil {
					return err
				}
				out := make([]int64, len(res))
				for i, c := range res {
					out[i] = c.ID
				}
				got[qi] = out
				return nil
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, row{k, timing.Mean, dataset.Recall(truth, got)})
			if timing.Mean < bestT {
				bestK, bestT = k, timing.Mean
			}
		}
		auto := autoindex.SelectIVFNlist(n)
		for _, r := range rows {
			mark := ""
			if r.k == bestK {
				mark = " *best"
			}
			rep.AddRow(fmt.Sprint(n), fmt.Sprint(r.k), fmt.Sprint(r.mean)+mark, fmtRecall(r.recall), fmt.Sprint(auto))
		}
	}
	return rep, nil
}

// runTable4 reproduces Table IV: end-to-end load time of the three
// systems on the Cohere-like and OpenAI-like datasets over
// latency-modeled remote storage. BlendHouse's pipelined segment
// write + index build overlap is the decisive factor.
func runTable4(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "table4", Title: "Load time of different systems (seconds)",
		Headers: []string{"System", "Cohere-like", "OpenAI-like"}}
	rep.Note("paper Table IV: BlendHouse 559/5398 < Milvus 783/9448 < pgvector 1226/10068 (s); shape check = same ordering")
	times := map[string]map[string]time.Duration{}
	for _, mk := range []struct {
		label string
		make  func() *dataset.Dataset
	}{
		{"Cohere-like", func() *dataset.Dataset { return cohereLike(cfg) }},
		{"OpenAI-like", func() *dataset.Dataset { return openaiLike(cfg) }},
	} {
		ds := mk.make()
		systems := systemSet(cfg, 1000, func() storage.BlobStore { return remoteStore() })
		lt, err := loadAll(systems, ds)
		if err != nil {
			return nil, err
		}
		for name, d := range lt {
			if times[name] == nil {
				times[name] = map[string]time.Duration{}
			}
			times[name][mk.label] = d
		}
	}
	for _, name := range systemOrder {
		rep.AddRow(name, fmtDur(times[name]["Cohere-like"]), fmtDur(times[name]["OpenAI-like"]))
	}
	ok := times["BlendHouse"]["Cohere-like"] < times["Milvus"]["Cohere-like"] &&
		times["Milvus"]["Cohere-like"] < times["pgvector"]["Cohere-like"]
	rep.Note("ordering BlendHouse < Milvus < pgvector holds: %v", ok)
	return rep, nil
}

// indexTypeSet builds BlendHouse instances per index type for Tables
// V/VI and Figure 13.
func indexTypeSet(cfg Config) map[string]*bh.Store {
	eng := core.Config{SegmentRows: 1500, Seed: cfg.Seed}
	return map[string]*bh.Store{
		"BH-HNSW":    bh.New(bh.Config{Engine: eng, TableName: "hnsw", IndexType: index.HNSW, M: 12, EfConstr: 120}, fastStore()),
		"BH-HNSWSQ":  bh.New(bh.Config{Engine: eng, TableName: "hnswsq", IndexType: index.HNSWSQ, M: 12, EfConstr: 120}, fastStore()),
		"BH-IVFPQFS": bh.New(bh.Config{Engine: core.Config{SegmentRows: 1500, Seed: cfg.Seed, AutoIndex: true}, TableName: "ivfpqfs", IndexType: index.IVFPQFS}, fastStore()),
	}
}

var indexTypeOrder = []string{"BH-HNSW", "BH-HNSWSQ", "BH-IVFPQFS"}

// runTable5 reproduces Table V: load time per index type. HNSWSQ
// builds faster than HNSW (cheaper distance kernel); IVFPQFS builds
// fastest (k-means + encode, no graph).
func runTable5(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "table5", Title: "Load time of different index types (seconds)",
		Headers: []string{"Index", "Cohere-like"}}
	rep.Note("paper Table V: HNSW 559 > HNSWSQ 352 > IVFPQFS 265 (s, Cohere); shape check = same ordering")
	ds := cohereLike(cfg)
	systems := indexTypeSet(cfg)
	attrs := seqAttrs(ds.Vectors.Rows())
	times := map[string]time.Duration{}
	for name, s := range systems {
		start := time.Now()
		if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, attrs); err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		times[name] = time.Since(start)
	}
	for _, name := range indexTypeOrder {
		rep.AddRow(name, fmtDur(times[name]))
	}
	rep.Note("IVFPQFS fastest holds: %v", times["BH-IVFPQFS"] < times["BH-HNSW"] && times["BH-IVFPQFS"] < times["BH-HNSWSQ"])
	rep.Note("known scale deviation: the paper's HNSWSQ-builds-faster-than-HNSW gap comes from SIMD uint8 kernels and memory bandwidth at GB scale; in pure scalar Go with a cache-resident dataset the two kernels run at parity (see EXPERIMENTS.md)")
	return rep, nil
}

// runTable6 reproduces Table VI: resident index memory per type.
func runTable6(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "table6", Title: "Memory consumption of different index types",
		Headers: []string{"Index", "Size (MB)", "vs HNSW"}}
	rep.Note("paper Table VI: HNSW 596GB > HNSWSQ 238GB > IVFPQFS 91GB; shape check = same ordering & similar ratios (~2.5x, ~6.5x)")
	ds := cohereLike(cfg)
	systems := indexTypeSet(cfg)
	attrs := seqAttrs(ds.Vectors.Rows())
	sizes := map[string]int64{}
	for name, s := range systems {
		err := s.Load(ds.Vectors.Data, ds.Spec.Dim, attrs)
		if err != nil {
			return nil, err
		}
		if sizes[name], err = s.MemoryBytes(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	base := float64(sizes["BH-HNSW"])
	for _, name := range indexTypeOrder {
		rep.AddRow(name, fmt.Sprintf("%.2f", float64(sizes[name])/(1<<20)),
			fmt.Sprintf("%.2fx", float64(sizes[name])/base))
	}
	rep.Note("ordering holds: %v", sizes["BH-HNSW"] > sizes["BH-HNSWSQ"] && sizes["BH-HNSWSQ"] > sizes["BH-IVFPQFS"])
	return rep, nil
}

// runFig13 reproduces Figure 13: recall-QPS trade-off per index type.
func runFig13(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "fig13", Title: "Recall vs QPS of different index types",
		Headers: []string{"Index", "param", "recall@10", "QPS"}}
	rep.Note("paper Fig 13: HNSW best at high recall; IVFPQFS fastest at low recall; HNSWSQ in between")
	ds := cohereLike(cfg)
	attrs := seqAttrs(ds.Vectors.Rows())
	truth := ds.GroundTruth(datasetMetric, 10, nil)
	systems := indexTypeSet(cfg)
	for _, name := range indexTypeOrder {
		s := systems[name]
		if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, attrs); err != nil {
			return nil, err
		}
		// Warm caches so the first ladder point isn't penalized.
		if _, err := s.Search(ds.Queries.Row(0), 10, baseline.AttrMin, baseline.AttrMax, index.SearchParams{Ef: 16, Nprobe: 2, RefineFactor: 4}); err != nil {
			return nil, err
		}
		for _, ef := range []int{16, 32, 64, 128, 256} {
			p := index.SearchParams{Ef: ef, Nprobe: ef / 8, RefineFactor: 4}
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
			param := fmt.Sprintf("ef=%d", ef)
			if name == "BH-IVFPQFS" {
				param = fmt.Sprintf("nprobe=%d", p.Nprobe)
			}
			rep.AddRow(name, param, fmtRecall(dataset.Recall(truth, got)), fmtQPS(timing.QPS))
		}
	}
	return rep, nil
}
