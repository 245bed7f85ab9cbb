package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"blendhouse/internal/baseline"
	"blendhouse/internal/baseline/bh"
	"blendhouse/internal/baseline/milvuslike"
	"blendhouse/internal/baseline/pgvectorlike"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"

	// All pluggable index types must be registered for the experiments.
	_ "blendhouse/internal/index/diskann"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	_ "blendhouse/internal/index/ivf"
)

// datasetMetric is the metric all benchmark workloads use.
const datasetMetric = vec.L2

// Scaled dataset stand-ins (paper dims / row counts are scaled for a
// single-core box; the per-report notes record the substitution).
//
//	paper Cohere: 1M × 768   → here: 8k × 96
//	paper OpenAI: 5M × 1536  → here: 6k × 192
//	paper LAION:  1M × 512   → here: 6k × 64 (+captions, +similarity)
//	paper prod:   30M × n/a  → here: 10k × 64 (+category/region/ts)
func cohereLike(cfg Config) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{Name: "cohere-like", N: cfg.n(8000), Dim: 96,
		Queries: cfg.Queries, Seed: cfg.Seed, WithInts: true})
}

func openaiLike(cfg Config) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{Name: "openai-like", N: cfg.n(6000), Dim: 192,
		Queries: cfg.Queries, Seed: cfg.Seed + 1, WithInts: true})
}

func laionLike(cfg Config) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{Name: "laion-like", N: cfg.n(6000), Dim: 64,
		Queries: cfg.Queries, Seed: cfg.Seed + 2, WithFloats: true, WithCaptions: true})
}

func prodLike(cfg Config) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{Name: "prod-like", N: cfg.n(10000), Dim: 64,
		Queries: cfg.Queries, Seed: cfg.Seed + 3, WithProdCols: true, WithInts: true})
}

// seqAttrs returns attrs equal to the row index, so a selectivity-s
// range filter is simply [0, s·n).
func seqAttrs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// selRange converts a fraction of qualifying rows into attr bounds
// over seqAttrs. The paper labels workloads by *filtered-out*
// percentage: its "1% selectivity" keeps 99% of rows (s=0.99), its
// "99% selectivity" keeps 1% (s=0.01).
func selRange(n int, s float64) (int64, int64) {
	hi := int64(float64(n)*s) - 1
	if hi < 0 {
		hi = 0
	}
	return 0, hi
}

// remoteStore builds a latency-modeled shared store (1ms RTT, 1GB/s —
// same-region object storage).
func remoteStore() *storage.RemoteStore {
	return storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{
		OpLatency: time.Millisecond, BytesPerSecond: 1 << 30,
	})
}

// fastStore is a zero-latency store for CPU-bound experiments.
func fastStore() storage.BlobStore { return storage.NewMemStore() }

// systemSet builds the three comparison systems over individual
// stores. segRows aligns BlendHouse and Milvus-like segment sizes.
func systemSet(cfg Config, segRows int, store func() storage.BlobStore) map[string]baseline.VectorStore {
	return map[string]baseline.VectorStore{
		"BlendHouse": bh.New(bh.Config{SegmentRows: segRows, Seed: cfg.Seed, M: 12, EfConstr: 120}, store()),
		"Milvus":     milvuslike.New(milvuslike.Config{SegmentRows: segRows, Seed: cfg.Seed, M: 12, EfConstruction: 120}, store()),
		"pgvector":   pgvectorlike.New(pgvectorlike.Config{Seed: cfg.Seed, M: 12, EfConstruction: 120}, store()),
	}
}

// systemOrder fixes row ordering in reports.
var systemOrder = []string{"BlendHouse", "Milvus", "pgvector"}

// loadAll loads every system with the dataset, returning per-system
// wall-clock load times.
func loadAll(systems map[string]baseline.VectorStore, ds *dataset.Dataset) (map[string]time.Duration, error) {
	attrs := seqAttrs(ds.Vectors.Rows())
	out := map[string]time.Duration{}
	for name, s := range systems {
		start := time.Now()
		if err := s.Load(ds.Vectors.Data, ds.Spec.Dim, attrs); err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		out[name] = time.Since(start)
	}
	return out, nil
}

// efLadder is the accuracy-tuning ladder shared by the QPS-at-recall
// experiments.
var efLadder = []int{16, 32, 64, 128, 256, 512}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtQPS(q float64) string { return fmt.Sprintf("%.1f", q) }

func fmtRecall(r float64) string { return fmt.Sprintf("%.4f", r) }

// ingest loads batch into a fresh table as serve does: through its
// write-ahead log, whose closing flush cuts the segments and builds
// their indexes. The table is read-only afterwards.
func ingest(tab *lsm.Table, batch *storage.RowBatch) error {
	if err := tab.EnableWAL(lsm.WALConfig{}); err != nil {
		return err
	}
	return errors.Join(tab.Insert(context.Background(), batch), tab.CloseWAL())
}
