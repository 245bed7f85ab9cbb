package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"blendhouse/internal/storage"
)

// BenchmarkTopKParallelism measures hybrid top-k latency at segment
// fan-out 1 vs GOMAXPROCS over a latency-simulated remote store (the
// regime the paper's disaggregated deployment lives in: per-read
// round trips dominate, so per-segment concurrency buys wall time).
func BenchmarkTopKParallelism(b *testing.B) {
	store := storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{OpLatency: 100 * time.Microsecond})
	e, err := New(Config{Store: store, SegmentRows: 125})
	if err != nil {
		b.Fatal(err)
	}
	const dim, rows = 8, 2000
	if _, err := e.Exec(context.Background(), fmt.Sprintf(`CREATE TABLE benchtab (
		id UInt64,
		label String,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE HNSW('DIM=%d','M=8','EF_CONSTRUCTION=64','SEED=3')
	) ORDER BY id`, dim)); err != nil {
		b.Fatal(err)
	}
	buf := []byte("INSERT INTO benchtab VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32((i*31+d*7)%97) / 97
		}
		buf = append(buf, fmt.Sprintf("(%d, 'l%d', %s)", i, i%5, vecLit(v))...)
	}
	if _, err := e.Exec(context.Background(), string(buf)); err != nil {
		b.Fatal(err)
	}
	q := make([]float32, dim)
	for d := range q {
		q[d] = 0.5
	}
	src := fmt.Sprintf(`SELECT id, dist FROM benchtab WHERE label = 'l2' ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q))

	// The fan-out side: GOMAXPROCS, floored at 8 — the scans here are
	// dominated by simulated remote-read latency, which overlaps across
	// goroutines regardless of core count.
	parN := runtime.GOMAXPROCS(0)
	if parN < 8 {
		parN = 8
	}
	for _, par := range []int{1, parN} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(context.Background(), src, QueryOptions{MaxParallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
