package index_test

import (
	"fmt"
	"testing"

	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

// BenchmarkSmallSegmentSearch pins the break-even that
// autoindex.MinIndexRows encodes: one top-10 query over a segment of n
// rows, answered by an exact flat scan and by an HNSW graph at M 8,
// efC 80, ef 64 (the parameters auto-index gives a segment of that
// size). The build is outside the timer; below the threshold its cost
// is what the flat scan saves.
func BenchmarkSmallSegmentSearch(b *testing.B) {
	const nq = 16
	for _, dim := range []int{64, 128} {
		qs := goldenFloats(nq*dim, 12)
		for _, n := range []int{512, 1024, 2048, 4096} {
			data := goldenFloats(n*dim, 11)
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)
			}
			for _, typ := range []index.Type{index.Flat, index.HNSW} {
				ix, err := index.New(typ, index.BuildParams{Dim: dim, Metric: vec.L2, M: 8, EfConstruction: 80, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.AddWithIDs(data, ids); err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("dim=%d/rows=%d/%s", dim, n, typ), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						q := qs[(i%nq)*dim : (i%nq+1)*dim]
						if _, err := ix.SearchWithFilter(q, 10, nil, index.SearchParams{Ef: 64}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
