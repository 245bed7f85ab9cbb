package ivf

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

const (
	vN   = 1200
	vDim = 16
)

func buildVariant(t *testing.T, v Variant, withRefine bool) (*Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Small(vN, vDim, 33)
	ix, err := New(index.BuildParams{Dim: vDim, Nlist: 24, PQM: 4, Seed: 2}.WithDefaults(), v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Train(ds.Vectors.Data); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, vN)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		t.Fatal(err)
	}
	if withRefine {
		ix.SetRawProvider(func(id int64, out []float32) bool {
			if id < 0 || id >= vN {
				return false
			}
			copy(out, ds.Vectors.Row(int(id)))
			return true
		})
	}
	return ix, ds
}

func TestTrainedGuard(t *testing.T) {
	ix, err := New(index.BuildParams{Dim: vDim, Nlist: 8}.WithDefaults(), VariantFlat)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Trained() {
		t.Fatal("fresh index reports trained")
	}
	// Search before training: empty, not an error.
	res, err := ix.SearchWithFilter(make([]float32, vDim), 5, nil, index.SearchParams{})
	if err != nil || len(res) != 0 {
		t.Fatalf("untrained search: %v, %v", res, err)
	}
	// Save before training must fail loudly.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err == nil {
		t.Fatal("saving untrained index should fail")
	}
	// Training validation.
	if err := ix.Train(make([]float32, vDim+1)); err == nil {
		t.Fatal("ragged training sample should fail")
	}
}

func TestRefineImprovesQuantizedRecall(t *testing.T) {
	ds := dataset.Small(vN, vDim, 33)
	truth := ds.GroundTruth(vec.L2, 10, nil)
	measure := func(withRefine bool) float64 {
		ix, _ := buildVariant(t, VariantPQFS, withRefine)
		got := make([][]int64, ds.Queries.Rows())
		for qi := range got {
			res, err := ix.SearchWithFilter(ds.Queries.Row(qi), 10, nil, index.SearchParams{Nprobe: 12, RefineFactor: 16})
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
	without := measure(false)
	with := measure(true)
	if with <= without {
		t.Fatalf("refine did not improve recall: %.3f -> %.3f", without, with)
	}
	if with < 0.8 {
		t.Fatalf("refined recall = %.3f", with)
	}
}

func TestRangeSearchRefined(t *testing.T) {
	ix, ds := buildVariant(t, VariantPQ, true)
	q := ds.Queries.Row(0)
	truth := ds.GroundTruth(vec.L2, 20, nil)
	radius := vec.L2Squared(q, ds.Vectors.Row(int(truth[0][19])))
	res, err := ix.SearchWithRange(q, radius, nil, index.SearchParams{Nprobe: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res {
		// Refined distances are exact, so the radius must hold exactly.
		exact := vec.L2Squared(q, ds.Vectors.Row(int(c.ID)))
		if exact != c.Dist {
			t.Fatalf("refined range distance %v != exact %v", c.Dist, exact)
		}
		if c.Dist > radius {
			t.Fatalf("candidate beyond radius: %v > %v", c.Dist, radius)
		}
	}
	if len(res) < 10 {
		t.Fatalf("range found only %d", len(res))
	}
}

func TestNprobeMonotoneRecall(t *testing.T) {
	ix, ds := buildVariant(t, VariantFlat, false)
	truth := ds.GroundTruth(vec.L2, 10, nil)
	recallAt := func(np int) float64 {
		got := make([][]int64, ds.Queries.Rows())
		for qi := range got {
			res, _ := ix.SearchWithFilter(ds.Queries.Row(qi), 10, nil, index.SearchParams{Nprobe: np})
			ids := make([]int64, len(res))
			for i, c := range res {
				ids[i] = c.ID
			}
			got[qi] = ids
		}
		return dataset.Recall(truth, got)
	}
	r1, r8, rAll := recallAt(1), recallAt(8), recallAt(24)
	if !(r1 <= r8+0.02 && r8 <= rAll+0.02) {
		t.Fatalf("recall not monotone in nprobe: %v %v %v", r1, r8, rAll)
	}
	if rAll < 0.999 {
		t.Fatalf("nprobe=nlist should be exact for IVFFLAT: %v", rAll)
	}
}

func TestSaveLoadPreservesRefineability(t *testing.T) {
	ix, ds := buildVariant(t, VariantPQFS, true)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := New(index.BuildParams{Dim: vDim, Nlist: 24, PQM: 4, Seed: 2}.WithDefaults(), VariantPQFS)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Load(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	re.SetRawProvider(func(id int64, out []float32) bool {
		copy(out, ds.Vectors.Row(int(id)))
		return true
	})
	res, err := re.SearchWithFilter(ds.Queries.Row(0), 5, nil, index.SearchParams{Nprobe: 12, RefineFactor: 8})
	if err != nil || len(res) != 5 {
		t.Fatalf("reloaded search: %d, %v", len(res), err)
	}
	// Refined distances must be exact.
	for _, c := range res {
		if got := vec.L2Squared(ds.Queries.Row(0), ds.Vectors.Row(int(c.ID))); got != c.Dist {
			t.Fatalf("distance %v != exact %v after reload", c.Dist, got)
		}
	}
}

func TestPQMValidation(t *testing.T) {
	if _, err := New(index.BuildParams{Dim: 10, Nlist: 4, PQM: 3, PQNbits: 8}, VariantPQ); err == nil {
		t.Fatal("PQM not dividing dim should fail")
	}
}

// At nprobe = nlist every list is scanned, so IVF-Flat's answers are
// exact: the ids and distance bits of a per-row vec.Distance scan, for
// top-k and range, filtered and not.
func TestFlatListsMatchReferenceBitwise(t *testing.T) {
	ds := dataset.Small(vN, vDim, 33)
	data, q := ds.Vectors.Data, ds.Queries.Row(0)
	ids := make([]int64, vN)
	for i := range ids {
		ids[i] = int64(i)
	}
	third := bitset.New(vN)
	for i := 0; i < vN; i += 3 {
		third.Set(i)
	}
	const nlist, k = 24, 10
	p := index.SearchParams{Nprobe: nlist}
	for _, metric := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
		ix, err := New(index.BuildParams{Dim: vDim, Metric: metric, Nlist: nlist, Seed: 2}.WithDefaults(), VariantFlat)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.AddWithIDs(data, ids); err != nil {
			t.Fatal(err)
		}
		for _, filter := range []index.Filter{nil, third} {
			label := fmt.Sprintf("%v filtered=%v", metric, filter != nil)
			ref := index.NewTopK(k)
			var dists []index.Candidate
			for i := 0; i < vN; i++ {
				if filter != nil && !filter.Test(i) {
					continue
				}
				c := index.Candidate{ID: int64(i), Dist: vec.Distance(metric, q, data[i*vDim:(i+1)*vDim])}
				ref.Push(c)
				dists = append(dists, c)
			}
			want := ref.Results()
			got, err := ix.SearchWithFilter(q, k, filter, p)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, label+" top-k", got, want)

			radius := want[k/2].Dist
			var wantR []index.Candidate
			for _, c := range dists {
				if c.Dist <= radius {
					wantR = append(wantR, c)
				}
			}
			index.SortCandidates(wantR)
			gotR, err := ix.SearchWithRange(q, radius, filter, p)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, label+" range", gotR, wantR)
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
