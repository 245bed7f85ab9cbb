package ivf

import (
	"bytes"
	"testing"

	"blendhouse/internal/bench/dataset"
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
