package flat

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

func mk(t *testing.T, dim int) *Index {
	t.Helper()
	ix, err := New(index.BuildParams{Dim: dim, Metric: vec.L2}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestExactnessProperty(t *testing.T) {
	// Flat search must return exactly the k smallest distances for any
	// data — verified against a naive recomputation with testing/quick.
	f := func(raw []int8, qRaw [4]int8) bool {
		n := len(raw) / 4
		if n == 0 {
			return true
		}
		ix := mkQuick(4)
		data := make([]float32, n*4)
		for i := 0; i < n*4; i++ {
			data[i] = float32(raw[i])
		}
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		if err := ix.AddWithIDs(data, ids); err != nil {
			return false
		}
		q := []float32{float32(qRaw[0]), float32(qRaw[1]), float32(qRaw[2]), float32(qRaw[3])}
		res, err := ix.SearchWithFilter(q, 3, nil, index.SearchParams{})
		if err != nil {
			return false
		}
		// Every returned distance must be <= every non-returned one.
		returned := map[int64]bool{}
		var worst float32
		for _, c := range res {
			returned[c.ID] = true
			if c.Dist > worst {
				worst = c.Dist
			}
		}
		for i := 0; i < n; i++ {
			if returned[int64(i)] {
				continue
			}
			if vec.L2Squared(q, data[i*4:i*4+4]) < worst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func mkQuick(dim int) *Index {
	ix, _ := New(index.BuildParams{Dim: dim, Metric: vec.L2}.WithDefaults())
	return ix
}

func TestVectorAccessor(t *testing.T) {
	ix := mk(t, 2)
	ix.AddWithIDs([]float32{1, 2, 3, 4}, []int64{10, 20})
	if v := ix.Vector(1); v[0] != 3 || v[1] != 4 {
		t.Fatalf("Vector(1) = %v", v)
	}
}

func TestFilterBeyondBitsetLength(t *testing.T) {
	// IDs beyond the filter's length must be treated as filtered out,
	// not panic.
	ix := mk(t, 2)
	ix.AddWithIDs([]float32{0, 0, 1, 1, 2, 2}, []int64{0, 5, 99})
	f := bitset.New(6) // id 99 out of range
	f.Set(0)
	f.Set(5)
	res, err := ix.SearchWithFilter([]float32{0, 0}, 10, f, index.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	for _, c := range res {
		if c.ID == 99 {
			t.Fatal("out-of-filter id returned")
		}
	}
}

func TestSaveLoadRejectsDimMismatch(t *testing.T) {
	ix := mk(t, 3)
	ix.AddWithIDs([]float32{1, 2, 3}, []int64{1})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := mk(t, 4)
	if err := other.Load(buf.Bytes()); err == nil {
		t.Fatal("dim mismatch load should fail")
	}
}

func TestIteratorIsExactOrder(t *testing.T) {
	ix := mk(t, 1)
	ix.AddWithIDs([]float32{5, 1, 3, 2, 4}, []int64{0, 1, 2, 3, 4})
	it, err := ix.SearchIterator([]float32{0}, index.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		b, _ := it.Next(2)
		if len(b) == 0 {
			break
		}
		for _, c := range b {
			got = append(got, c.ID)
		}
	}
	want := []int64{1, 3, 2, 4, 0} // by value 1,2,3,4,5
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestIteratorBatchesMatchFullSort: whatever the batch sizes, the
// iterator streams exactly the sequence a full SortCandidates of every
// row gives — ties (duplicate rows) by ID included — bit for bit.
func TestIteratorBatchesMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 5
	for _, n := range []int{0, 1, 2, 63, 64, 65, 300, 1000} {
		ix := mk(t, dim)
		data := make([]float32, n*dim)
		for i := range data {
			data[i] = float32(rng.Intn(7)) // few values: many exact ties
		}
		ids := rng.Perm(n)
		ids64 := make([]int64, n)
		for i, id := range ids {
			ids64[i] = int64(id)
		}
		if err := ix.AddWithIDs(data, ids64); err != nil {
			t.Fatal(err)
		}
		q := []float32{3, 1, 4, 1, 5}
		want := make([]index.Candidate, n)
		for i := range want {
			want[i] = index.Candidate{ID: ids64[i], Dist: vec.L2Squared(q, data[i*dim:(i+1)*dim])}
		}
		index.SortCandidates(want)
		for _, sizes := range [][]int{{1}, {16}, {7, 1, 100}, {n + 1}} {
			it, err := ix.SearchIterator(q, index.SearchParams{})
			if err != nil {
				t.Fatal(err)
			}
			var got []index.Candidate
			for i := 0; ; i++ {
				b, err := it.Next(sizes[i%len(sizes)])
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == 0 {
					break
				}
				got = append(got, b...)
			}
			if len(got) != n {
				t.Fatalf("n=%d batches %v: %d candidates", n, sizes, len(got))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
					t.Fatalf("n=%d batches %v: position %d is %+v, full sort %+v", n, sizes, i, got[i], want[i])
				}
			}
		}
	}
}

// The fused blocked/early-abandoning scan must return byte-identical
// candidates to a naive per-row vec.Distance scan feeding the same
// top-k heap, across metrics, odd sizes, filtered variants and range
// search, for an index built with ids and for a View whose ids are the
// row offsets; dim 192 with n 1 000 is the shape of the scaled
// OpenAI-like dataset.
func TestFusedScanMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, metric := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
		for _, n := range []int{0, 1, 7, 63, 64, 65, 200, 1000} {
			for _, dim := range []int{3, 8, 96, 192} {
				p := index.BuildParams{Dim: dim, Metric: metric}.WithDefaults()
				ix, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				data := make([]float32, n*dim)
				ids := make([]int64, n)
				for i := range data {
					data[i] = rng.Float32()*2 - 1
				}
				for i := range ids {
					ids[i] = int64(i)
				}
				if n > 0 {
					if err := ix.AddWithIDs(data, ids); err != nil {
						t.Fatal(err)
					}
				}
				q := make([]float32, dim)
				for i := range q {
					q[i] = rng.Float32()*2 - 1
				}
				k := 10
				// Filtered variants keep every third id.
				third := bitset.New(n)
				for i := 0; i < n; i += 3 {
					third.Set(i)
				}
				for _, filter := range []index.Filter{nil, third} {
					ref := index.NewTopK(k)
					var scored []index.Candidate
					for i := range ids {
						if filter != nil && !filter.Test(i) {
							continue
						}
						c := index.Candidate{ID: ids[i], Dist: vec.Distance(metric, q, data[i*dim:(i+1)*dim])}
						ref.Push(c)
						scored = append(scored, c)
					}
					want := ref.Results()
					// Range at a mid-scan radius.
					var wantR []index.Candidate
					if len(want) > 0 {
						radius := want[len(want)/2].Dist
						for _, c := range scored {
							if c.Dist <= radius {
								wantR = append(wantR, c)
							}
						}
						index.SortCandidates(wantR)
					}
					for _, x := range []struct {
						name string
						ix   *Index
					}{{"built", ix}, {"offsets view", View(p, data, nil)}} {
						label := fmt.Sprintf("%s %v n=%d dim=%d filtered=%v", x.name, metric, n, dim, filter != nil)
						got, err := x.ix.SearchWithFilter(q, k, filter, index.SearchParams{})
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, label, got, want)
						if len(want) == 0 {
							continue
						}
						gotR, err := x.ix.SearchWithRange(q, want[len(want)/2].Dist, filter, index.SearchParams{})
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, label+" range", gotR, wantR)
					}
				}
			}
		}
	}
}

// sameBits fails unless got and want hold the same ids and the same
// distance bits in the same order.
func sameBits(t *testing.T, label string, got, want []index.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// A filtered search admits only ids in [0, filter.Len()): a negative
// id is filtered out, not a panic, in an index built with it and in
// one loaded from a blob that holds it.
func TestFilterSkipsNegativeIDs(t *testing.T) {
	ix := mk(t, 2)
	if err := ix.AddWithIDs([]float32{0, 0, 1, 1}, []int64{-65, 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := mk(t, 2)
	if err := loaded.Load(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	f := bitset.New(2)
	f.Set(0)
	f.Set(1)
	for name, x := range map[string]*Index{"built": ix, "loaded": loaded} {
		top, err := x.SearchWithFilter([]float32{0, 0}, 10, f, index.SearchParams{})
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 1 || top[0].ID != 1 {
			t.Fatalf("%s: top-k = %v, want only id 1", name, top)
		}
		in, err := x.SearchWithRange([]float32{0, 0}, 10, f, index.SearchParams{})
		if err != nil {
			t.Fatal(err)
		}
		if len(in) != 1 || in[0].ID != 1 {
			t.Fatalf("%s: range = %v, want only id 1", name, in)
		}
	}
}

// A View over row offsets answers with the offsets and saves them, so
// its blob is the one an index built with ids 0..n-1 saves; an add
// appends after the offsets.
func TestOffsetsViewSavesOffsets(t *testing.T) {
	data := []float32{0, 0, 1, 1, 2, 2}
	built := mk(t, 2)
	if err := built.AddWithIDs(data, []int64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	view := View(built.params, data, nil)
	if view.Count() != 3 {
		t.Fatalf("Count = %d, want 3", view.Count())
	}
	var a, b bytes.Buffer
	if err := built.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := view.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("offsets view saves a different blob than ids 0..n-1")
	}
	if err := view.AddWithIDs([]float32{3, 3}, []int64{9}); err != nil {
		t.Fatal(err)
	}
	res, err := view.SearchWithFilter([]float32{3, 3}, 4, nil, index.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res[0].ID != 9 || res[1].ID != 2 || res[2].ID != 1 || res[3].ID != 0 {
		t.Fatalf("after add: %v, want ids 9, 2, 1, 0", res)
	}
}
