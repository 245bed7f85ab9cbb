package hnsw

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

const (
	hN   = 2000
	hDim = 24
)

func built(t *testing.T, quantized bool) (*Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Small(hN, hDim, 13)
	ix, err := New(index.BuildParams{Dim: hDim, Metric: vec.L2, M: 12, EfConstruction: 100, Seed: 4}.WithDefaults(), quantized)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, hN)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

func TestLayerDegreeBounds(t *testing.T) {
	ix, _ := built(t, false)
	for ni := range ix.ids {
		for l := 0; l <= int(ix.levels[ni]); l++ {
			degreeCap := ix.params.M
			if l == 0 {
				degreeCap = 2 * ix.params.M
			}
			if nbrs := ix.neighbors(ni, l); len(nbrs) > degreeCap {
				t.Fatalf("node %d layer %d degree %d > cap %d", ni, l, len(nbrs), degreeCap)
			}
		}
	}
}

func TestLayer0Connected(t *testing.T) {
	// Every node must be reachable from the entry point at layer 0 —
	// otherwise some vectors are permanently unfindable.
	ix, _ := built(t, false)
	seen := make([]bool, len(ix.ids))
	stack := []int{ix.entry}
	seen[ix.entry] = true
	count := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, nb := range ix.neighbors(n, 0) {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, int(nb))
			}
		}
	}
	if count < hN*99/100 {
		t.Fatalf("layer 0 reaches only %d of %d nodes", count, hN)
	}
}

func TestConcurrentSearches(t *testing.T) {
	ix, ds := built(t, false)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := 0; qi < 20; qi++ {
				if _, err := ix.SearchWithFilter(ds.Queries.Row((g+qi)%ds.Queries.Rows()), 10, nil, index.SearchParams{Ef: 48}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentSQSearches(t *testing.T) {
	// The SQ query path must be race-free: each search encodes its own
	// query and uses its own scratch.
	ix, ds := built(t, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := 0; qi < 10; qi++ {
				ix.SearchWithFilter(ds.Queries.Row((g+qi)%ds.Queries.Rows()), 10, nil, index.SearchParams{Ef: 48})
			}
		}(g)
	}
	wg.Wait()
}

func TestIteratorExhaustsEverything(t *testing.T) {
	ix, ds := built(t, false)
	it, err := ix.SearchIterator(ds.Queries.Row(0), index.SearchParams{Ef: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := map[int64]bool{}
	for {
		batch, err := it.Next(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			if seen[c.ID] {
				t.Fatalf("duplicate %d", c.ID)
			}
			seen[c.ID] = true
		}
	}
	// Layer 0 is (near-)fully connected, so the stream covers ~all.
	if len(seen) < hN*99/100 {
		t.Fatalf("iterator covered only %d of %d", len(seen), hN)
	}
}

func TestIteratorEfImprovesHeadQuality(t *testing.T) {
	ix, ds := built(t, false)
	truth := ds.GroundTruth(vec.L2, 10, nil)
	recallAt := func(ef int) float64 {
		hits, total := 0, 0
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			it, err := ix.SearchIterator(ds.Queries.Row(qi), index.SearchParams{Ef: ef})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := it.Next(10)
			it.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]bool{}
			for _, id := range truth[qi] {
				want[id] = true
			}
			total += len(truth[qi])
			for _, c := range batch {
				if want[c.ID] {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	lo := recallAt(4)
	hi := recallAt(128)
	if hi < 0.97 {
		t.Fatalf("iterator head recall at ef=128 = %.3f", hi)
	}
	if hi < lo {
		t.Fatalf("ef did not improve iterator quality: %.3f -> %.3f", lo, hi)
	}
}

func TestIteratorAfterCloseReturnsNothing(t *testing.T) {
	ix, ds := built(t, false)
	it, err := ix.SearchIterator(ds.Queries.Row(0), index.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	batch, err := it.Next(5)
	if err != nil || len(batch) != 0 {
		t.Fatalf("Next after Close: %v, %v", batch, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal("double close must be safe")
	}
}

func TestSQRecallCloseToRaw(t *testing.T) {
	raw, ds := built(t, false)
	sq, _ := built(t, true)
	truth := ds.GroundTruth(vec.L2, 10, nil)
	recall := func(ix *Index) float64 {
		got := make([][]int64, ds.Queries.Rows())
		for qi := range got {
			res, err := ix.SearchWithFilter(ds.Queries.Row(qi), 10, nil, index.SearchParams{Ef: 96})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(res))
			for i, c := range res {
				ids[i] = c.ID
			}
			got[qi] = ids
		}
		return dataset.Recall(truth, got)
	}
	rRaw, rSQ := recall(raw), recall(sq)
	if rRaw < 0.97 {
		t.Fatalf("raw recall = %.3f", rRaw)
	}
	if rSQ < rRaw-0.15 {
		t.Fatalf("SQ recall %.3f too far below raw %.3f", rSQ, rRaw)
	}
	// And genuinely smaller.
	if sq.MemoryBytes() >= raw.MemoryBytes() {
		t.Fatalf("SQ index not smaller: %d vs %d", sq.MemoryBytes(), raw.MemoryBytes())
	}
}

func TestTrainRequiredBeforeSQAdd(t *testing.T) {
	ix, err := New(index.BuildParams{Dim: 4}.WithDefaults(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.NeedsTrain() {
		t.Fatal("SQ variant must need training")
	}
	// Implicit training on first AddWithIDs works.
	if err := ix.AddWithIDs([]float32{1, 2, 3, 4, 5, 6, 7, 8}, []int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 2 {
		t.Fatalf("Count = %d", ix.Count())
	}
}

func TestCosineAndIPVariants(t *testing.T) {
	for _, metric := range []vec.Metric{vec.InnerProduct, vec.Cosine} {
		for _, quantized := range []bool{false, true} {
			ds := dataset.Small(500, 8, 14)
			ix, err := New(index.BuildParams{Dim: 8, Metric: metric, M: 8, EfConstruction: 60, Seed: 3}.WithDefaults(), quantized)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, 500)
			for i := range ids {
				ids[i] = int64(i)
			}
			if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
				t.Fatal(err)
			}
			truth := ds.GroundTruth(metric, 5, nil)
			got := make([][]int64, ds.Queries.Rows())
			for qi := range got {
				res, err := ix.SearchWithFilter(ds.Queries.Row(qi), 5, nil, index.SearchParams{Ef: 64})
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]int64, len(res))
				for i, c := range res {
					ids[i] = c.ID
				}
				got[qi] = ids
			}
			if r := dataset.Recall(truth, got); r < 0.7 {
				t.Errorf("metric %v quantized=%v recall = %.3f", metric, quantized, r)
			}
		}
	}
}

// The SQ IP/Cosine fast paths depend on per-node code sums that are
// derived state: they are not serialized and must be rebuilt on Load.
// A reloaded index must answer queries identically to the original.
func TestSQSaveLoadPreservesFastPathResults(t *testing.T) {
	for _, metric := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
		ds := dataset.Small(400, 8, 21)
		p := index.BuildParams{Dim: 8, Metric: metric, M: 8, EfConstruction: 60, Seed: 5}.WithDefaults()
		ix, err := New(p, true)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, 400)
		for i := range ids {
			ids[i] = int64(i)
		}
		if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Load(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			q := ds.Queries.Row(qi)
			want, err := ix.SearchWithFilter(q, 5, nil, index.SearchParams{Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.SearchWithFilter(q, 5, nil, index.SearchParams{Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("metric %v query %d: %d results after reload, want %d", metric, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
					t.Fatalf("metric %v query %d: reloaded result %d = %+v, want %+v", metric, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// Constant vectors train a degenerate quantizer (step 0). Every metric
// must still return finite distances — regression for the Step==0 /
// zero-norm guards in the SQ fast paths.
func TestSQConstantVectorsFinite(t *testing.T) {
	for _, metric := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
		const n, dim = 50, 6
		data := make([]float32, n*dim)
		for i := range data {
			data[i] = 2.5
		}
		ix, err := New(index.BuildParams{Dim: dim, Metric: metric, M: 8, EfConstruction: 40, Seed: 7}.WithDefaults(), true)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		if err := ix.AddWithIDs(data, ids); err != nil {
			t.Fatal(err)
		}
		res, err := ix.SearchWithFilter(data[:dim], 3, nil, index.SearchParams{Ef: 32})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatalf("metric %v: no results", metric)
		}
		for _, c := range res {
			if math.IsNaN(float64(c.Dist)) || math.IsInf(float64(c.Dist), 0) {
				t.Fatalf("metric %v: non-finite distance %v", metric, c.Dist)
			}
		}
	}
}
