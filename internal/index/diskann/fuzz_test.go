package diskann

import (
	"bytes"
	"errors"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

// FuzzLoad: any blob either fails to load with an error wrapping
// index.ErrCorrupt or loads into an index whose top-k search, with and
// without a filter, and range search all run — never a panic. The
// seeds are a saved graph of 40 vectors, an empty one, and the first
// one cut inside its header and inside a node record.
func FuzzLoad(f *testing.F) {
	p := index.BuildParams{Dim: 4, Metric: vec.L2, DegreeBound: 4, Seed: 3}.WithDefaults()
	ds := dataset.Small(40, p.Dim, 5)
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(i)
	}
	var small, empty bytes.Buffer
	for _, c := range []struct {
		buf  *bytes.Buffer
		vecs []float32
		ids  []int64
	}{{&small, ds.Vectors.Data, ids}, {&empty, nil, nil}} {
		ix, err := New(p)
		if err != nil {
			f.Fatal(err)
		}
		if err := ix.AddWithIDs(c.vecs, c.ids); err != nil {
			f.Fatal(err)
		}
		if err := ix.Save(c.buf); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(small.Bytes())
	f.Add(empty.Bytes())
	f.Add(small.Bytes()[:headerSize-3])
	f.Add(small.Bytes()[:headerSize+nodeRecordSize(p.Dim, p.DegreeBound)/2])
	f.Fuzz(func(t *testing.T, blob []byte) {
		ix, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Load(blob); err != nil {
			if !errors.Is(err, index.ErrCorrupt) {
				t.Fatalf("error %v does not wrap index.ErrCorrupt", err)
			}
			return
		}
		q := []float32{0.1, -0.2, 0.3, 0.05}
		if _, err := ix.SearchWithFilter(q, 5, nil, index.SearchParams{Ef: 16}); err != nil {
			t.Fatalf("search: %v", err)
		}
		even := bitset.New(ix.Count())
		for i := 0; i < ix.Count(); i += 2 {
			even.Set(i)
		}
		if _, err := ix.SearchWithFilter(q, 5, even, index.SearchParams{Ef: 16}); err != nil {
			t.Fatalf("filtered search: %v", err)
		}
		if _, err := ix.SearchWithRange(q, 0.5, nil, index.SearchParams{Ef: 16}); err != nil {
			t.Fatalf("range search: %v", err)
		}
	})
}
