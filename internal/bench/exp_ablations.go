package bench

import (
	"bytes"
	"fmt"
	"time"

	"blendhouse/internal/autoindex"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/hashring"
	"blendhouse/internal/index"
	"blendhouse/internal/index/diskann"
	"blendhouse/internal/index/hnsw"
	"blendhouse/internal/vec"
)

// Ablations beyond the paper's published artifacts: each isolates one
// design decision the paper argues for in prose (§II-D, §III-B) or
// lists as future work (§VII), and measures the alternative.
func init() {
	register("abl-iterator", "Ablation: native HNSW iterator vs generic restart-with-doubling iterator", runAblIterator)
	register("abl-hashring", "Ablation: multi-probe consistent hashing vs modulo assignment on scaling", runAblHashring)
	register("abl-diskindex", "Future work (1): on-disk DiskANN cold search vs in-memory HNSW", runAblDiskIndex)
	register("abl-tuner", "Future work (2): offline auto-tuning vs rule-based index parameters", runAblTuner)
}

// runAblIterator quantifies paper §III-B's claim that the generic
// restart iterator ("restarting the approximate nearest neighbor
// search from scratch with k doubling in each iteration") pays
// redundant search overhead that a native resumable iterator avoids.
// Both iterators drain the same number of candidates from the same
// HNSW graph under a selective post-filter.
func runAblIterator(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "abl-iterator", Title: "Native vs restart iterator under post-filtering",
		Headers: []string{"iterator", "survivor rate", "mean latency", "vs native"}}
	rep.Note("paper §III-B: the generic iterator 'retries by restarting ... causing redundant search overhead'; the native iterator is the hnswlib extension")
	ds := dataset.Generate(dataset.Spec{Name: "abl-it", N: cfg.n(8000), Dim: 48, Queries: cfg.Queries, Seed: cfg.Seed})
	n := ds.Vectors.Rows()
	ix, err := hnsw.New(index.BuildParams{Dim: 48, M: 12, EfConstruction: 100, Seed: cfg.Seed}.WithDefaults(), false)
	if err != nil {
		return nil, err
	}
	ids := seqAttrs(n)
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		return nil, err
	}
	// Post-filter scenario: only `rate` of candidates survive the
	// scalar predicate (even ids modulo 1/rate), so the engine must
	// pull ~k/rate candidates to assemble k survivors.
	const k = 10
	params := index.SearchParams{Ef: 64}
	for _, rate := range []float64{0.25, 0.05} {
		mod := int64(1 / rate)
		survives := func(id int64) bool { return id%mod == 0 }
		drain := func(open func() (index.Iterator, error)) (time.Duration, error) {
			t, err := MeasureSerial(cfg.Queries, func(qi int) error {
				it, err := open()
				if err != nil {
					return err
				}
				defer it.Close()
				found := 0
				for found < k {
					batch, err := it.Next(k)
					if err != nil {
						return err
					}
					if len(batch) == 0 {
						break
					}
					for _, c := range batch {
						if survives(c.ID) {
							found++
							if found == k {
								break
							}
						}
					}
				}
				return nil
			})
			return t.Mean, err
		}
		qi := 0
		nextQ := func() []float32 {
			q := ds.Queries.Row(qi % ds.Queries.Rows())
			qi++
			return q
		}
		native, err := drain(func() (index.Iterator, error) { return ix.SearchIterator(nextQ(), params) })
		if err != nil {
			return nil, err
		}
		qi = 0
		restart, err := drain(func() (index.Iterator, error) {
			return index.NewRestartIterator(ix, nextQ(), k, params), nil
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow("native (resumable)", fmt.Sprintf("%.0f%%", rate*100), fmt.Sprint(native), "1.00x")
		rep.AddRow("generic (restart+double)", fmt.Sprintf("%.0f%%", rate*100), fmt.Sprint(restart),
			fmt.Sprintf("%.2fx", float64(restart)/float64(native)))
	}
	return rep, nil
}

// runAblHashring quantifies paper §II-D's segment-allocation choice:
// multi-probe consistent hashing moves ~1/(n+1) of segments when a
// worker joins; naive modulo assignment reshuffles almost everything,
// turning every scale event into a cluster-wide cache flush.
func runAblHashring(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "abl-hashring", Title: "Segments moved when scaling W -> W+1 workers",
		Headers: []string{"workers", "consistent hashing", "modulo", "ideal (1/(W+1))"}}
	rep.Note("paper §II-D: 'the portion of segments requiring redistribution is minimized'; every moved segment is a cold index cache")
	const segments = 4000
	keys := make([]string, segments)
	for i := range keys {
		keys[i] = fmt.Sprintf("tables/t/segments/seg%08d", i)
	}
	moduloOwner := func(key string, workers int) int {
		h := 0
		for _, c := range key {
			h = h*31 + int(c)
		}
		if h < 0 {
			h = -h
		}
		return h % workers
	}
	for _, w := range []int{2, 4, 8} {
		ring := hashring.New()
		for i := 0; i < w; i++ {
			ring.Add(fmt.Sprintf("w%d", i))
		}
		before := ring.Assign(keys)
		ring.Add(fmt.Sprintf("w%d", w))
		after := ring.Assign(keys)
		movedCH := 0
		for _, k := range keys {
			if before[k] != after[k] {
				movedCH++
			}
		}
		movedMod := 0
		for _, k := range keys {
			if moduloOwner(k, w) != moduloOwner(k, w+1) {
				movedMod++
			}
		}
		rep.AddRow(fmt.Sprintf("%d -> %d", w, w+1),
			fmt.Sprintf("%.1f%%", 100*float64(movedCH)/segments),
			fmt.Sprintf("%.1f%%", 100*float64(movedMod)/segments),
			fmt.Sprintf("%.1f%%", 100/float64(w+1)))
	}
	return rep, nil
}

// runAblDiskIndex explores the paper's future-work direction (1):
// "exploring the on-disk vector index more for better cold read
// performance". It compares a cold query against (a) an in-memory
// HNSW that must first be loaded in full from remote storage and (b)
// the DiskANN-style on-disk graph that beam-searches directly off
// storage, reading only the nodes it visits.
func runAblDiskIndex(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "abl-diskindex", Title: "Cold read: full index load vs on-disk beam search",
		Headers: []string{"path", "cold first-query", "bytes read", "resident memory", "warm query"}}
	rep.Note("paper §VII future work (1); the on-disk graph reads ~beam-width node records instead of the whole index")
	ds := dataset.Generate(dataset.Spec{Name: "abl-disk", N: cfg.n(8000), Dim: 64, Queries: cfg.Queries, Seed: cfg.Seed})
	n := ds.Vectors.Rows()
	ids := seqAttrs(n)
	params := index.SearchParams{Ef: 48}

	// Build both indexes and serialize to the latency-modeled remote.
	hn, err := hnsw.New(index.BuildParams{Dim: 64, M: 12, EfConstruction: 100, Seed: cfg.Seed}.WithDefaults(), false)
	if err != nil {
		return nil, err
	}
	if err := hn.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		return nil, err
	}
	var hnBlob bytes.Buffer
	if err := hn.Save(&hnBlob); err != nil {
		return nil, err
	}
	da, err := diskann.New(index.BuildParams{Dim: 64, Seed: cfg.Seed}.WithDefaults())
	if err != nil {
		return nil, err
	}
	if err := da.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		return nil, err
	}
	var daBlob bytes.Buffer
	if err := da.Save(&daBlob); err != nil {
		return nil, err
	}

	remote := remoteStore()
	if err := remote.Put("idx/hnsw", hnBlob.Bytes()); err != nil {
		return nil, err
	}
	if err := remote.Put("idx/vamana", daBlob.Bytes()); err != nil {
		return nil, err
	}

	// Path A: cold = fetch whole blob + deserialize + search.
	startA := remote.Snapshot().BytesRead
	coldStart := time.Now()
	blob, err := remote.Get("idx/hnsw")
	if err != nil {
		return nil, err
	}
	fresh, err := hnsw.New(index.BuildParams{Dim: 64, M: 12, EfConstruction: 100, Seed: cfg.Seed}.WithDefaults(), false)
	if err != nil {
		return nil, err
	}
	if err := fresh.Load(blob); err != nil {
		return nil, err
	}
	if _, err := fresh.SearchWithFilter(ds.Queries.Row(0), 10, nil, params); err != nil {
		return nil, err
	}
	coldA := time.Since(coldStart)
	bytesA := remote.Snapshot().BytesRead - startA
	warmA, err := MeasureSerial(cfg.Queries, func(qi int) error {
		_, err := fresh.SearchWithFilter(ds.Queries.Row(qi%ds.Queries.Rows()), 10, nil, params)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Path B: cold = beam search straight off the remote blob via
	// ranged reads, with a small node cache.
	rdr := &remoteReaderAt{store: remote, key: "idx/vamana"}
	startB := remote.Snapshot().BytesRead
	coldStartB := time.Now()
	searcher, err := diskann.OpenDiskSearcher(rdr, vec.L2, 2048)
	if err != nil {
		return nil, err
	}
	if _, err := searcher.Search(ds.Queries.Row(0), 10, params); err != nil {
		return nil, err
	}
	coldB := time.Since(coldStartB)
	bytesB := remote.Snapshot().BytesRead - startB
	warmB, err := MeasureSerial(cfg.Queries, func(qi int) error {
		_, err := searcher.Search(ds.Queries.Row(qi%ds.Queries.Rows()), 10, params)
		return err
	})
	if err != nil {
		return nil, err
	}

	rep.AddRow("in-memory HNSW (full load)", fmt.Sprint(coldA), fmt.Sprintf("%.2f MB", float64(bytesA)/(1<<20)),
		fmt.Sprintf("%.2f MB", float64(fresh.MemoryBytes())/(1<<20)), fmt.Sprint(warmA.Mean))
	rep.AddRow("on-disk Vamana (beam reads)", fmt.Sprint(coldB), fmt.Sprintf("%.2f MB", float64(bytesB)/(1<<20)),
		fmt.Sprintf("%.2f MB", float64(2048*(64*4+12+4*32))/(1<<20))+" (node cache)", fmt.Sprint(warmB.Mean))
	rep.Note("cold-read bytes: on-disk path reads %.1f%% of the full-index load", 100*float64(bytesB)/float64(bytesA))
	rep.Note("scale context: this index is only ~3MB, so the full load is cheap; at the paper's scale (hundreds of GB per Table VI) the full-load path takes minutes while the beam-read path stays ~constant — the bytes-read ratio is the durable signal, and per-visit latency is why the paper pairs on-disk indexes with local SSD caches")
	return rep, nil
}

// remoteReaderAt adapts a blob store to io.ReaderAt with ranged reads.
type remoteReaderAt struct {
	store interface {
		GetRange(key string, off, length int64) ([]byte, error)
	}
	key string
}

func (r *remoteReaderAt) ReadAt(p []byte, off int64) (int, error) {
	data, err := r.store.GetRange(r.key, off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	copy(p, data)
	if len(data) < len(p) {
		return len(data), fmt.Errorf("short read at %d", off)
	}
	return len(data), nil
}

// runAblTuner exercises the paper's future-work direction (2) with
// the machinery we already ship: compare the rule-based K_IVF choice
// against the offline auto-tuner's pick on the same segment and
// sample queries (the background-compaction refinement of §III-B).
func runAblTuner(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{ID: "abl-tuner", Title: "Rule-based vs auto-tuned IVF parameters",
		Headers: []string{"method", "K_IVF", "recall@10", "mean latency"}}
	rep.Note("paper §III-B: ingestion uses rules, background compaction combines rules with auto-tuning tools; §VII lists smarter tuning as future work")
	ds := dataset.Generate(dataset.Spec{Name: "abl-tune", N: cfg.n(8000), Dim: 48, Queries: cfg.Queries, Seed: cfg.Seed})
	n := ds.Vectors.Rows()
	queries := make([][]float32, ds.Queries.Rows())
	for i := range queries {
		queries[i] = ds.Queries.Row(i)
	}
	truth := ds.GroundTruth(datasetMetric, 10, nil)

	evalK := func(k int) (float64, time.Duration, error) {
		ix, err := index.New(index.IVFFlat, index.BuildParams{Dim: 48, Nlist: k, Seed: cfg.Seed})
		if err != nil {
			return 0, 0, err
		}
		if err := ix.Train(ds.Vectors.Data); err != nil {
			return 0, 0, err
		}
		if err := ix.AddWithIDs(ds.Vectors.Data, seqAttrs(n)); err != nil {
			return 0, 0, err
		}
		got := make([][]int64, len(queries))
		t, err := MeasureSerial(len(queries), func(qi int) error {
			res, err := ix.SearchWithFilter(queries[qi], 10, nil, index.SearchParams{Nprobe: 8})
			if err != nil {
				return err
			}
			ids := make([]int64, len(res))
			for i, c := range res {
				ids[i] = c.ID
			}
			got[qi] = ids
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		return dataset.Recall(truth, got), t.Mean, nil
	}

	ruleK := autoindex.SelectIVFNlist(n)
	ruleRecall, ruleLat, err := evalK(ruleK)
	if err != nil {
		return nil, err
	}
	rep.AddRow("rule (4·sqrt N)", fmt.Sprint(ruleK), fmtRecall(ruleRecall), fmt.Sprint(ruleLat))

	tuned, err := autoindex.Tune(index.IVFFlat, 48, ds.Vectors.Data, queries, truth, autoindex.TunerConfig{
		K: 10, RecallTarget: 0.95, Search: index.SearchParams{Nprobe: 8},
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("auto-tuned (offline sweep)", fmt.Sprint(tuned.Params.Nlist), fmtRecall(tuned.Recall), fmt.Sprint(tuned.AvgLatency))
	rep.Note("tuner evaluated %d candidates around the rule's choice", tuned.Evaluated)
	return rep, nil
}
