package autoindex

import (
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	_ "blendhouse/internal/index/ivf"
	"blendhouse/internal/vec"
)

func TestSelectIVFNlist(t *testing.T) {
	// Rule: 4·√N capped so every centroid keeps ≥39 training points.
	cases := []struct{ n, want int }{
		{0, 1},
		{10, 0}, // capped: 10/39 = 0 → clamped to 1
		{100, 2},
		{1000, 25},
		{10000, 256},
		{1_000_000, 4000},
	}
	for _, c := range cases {
		got := SelectIVFNlist(c.n)
		if c.n == 10 {
			if got != 1 {
				t.Errorf("SelectIVFNlist(10) = %d, want 1", got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("SelectIVFNlist(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Monotone in N.
	prev := 0
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		k := SelectIVFNlist(n)
		if k < prev {
			t.Fatalf("Nlist not monotone: %d then %d", prev, k)
		}
		prev = k
	}
}

func TestSelectHNSWM(t *testing.T) {
	if SelectHNSWM(100) != 8 || SelectHNSWM(50_000) != 16 || SelectHNSWM(500_000) != 24 || SelectHNSWM(5_000_000) != 32 {
		t.Fatal("HNSW M ladder wrong")
	}
}

func TestApplyPreservesExplicitValues(t *testing.T) {
	p := Apply(index.IVFFlat, 10000, index.BuildParams{Nlist: 7})
	if p.Nlist != 7 {
		t.Fatalf("explicit Nlist overwritten: %d", p.Nlist)
	}
	p = Apply(index.IVFFlat, 10000, index.BuildParams{})
	if p.Nlist != SelectIVFNlist(10000) {
		t.Fatalf("auto Nlist = %d", p.Nlist)
	}
	p = Apply(index.HNSW, 100, index.BuildParams{})
	if p.M != 8 || p.EfConstruction != 80 {
		t.Fatalf("auto HNSW params = M=%d efC=%d", p.M, p.EfConstruction)
	}
	// FLAT untouched.
	p = Apply(index.Flat, 100, index.BuildParams{})
	if p.Nlist != 0 && p.M != 0 {
		t.Fatal("FLAT params should be untouched")
	}
}

func TestTuneSelectsQualifyingCandidate(t *testing.T) {
	ds := dataset.Small(1500, 16, 5)
	queries := make([][]float32, 20)
	for i := range queries {
		queries[i] = ds.Queries.Row(i)
	}
	// Truncate dataset truth to the same 20 queries.
	full := ds.GroundTruth(vec.L2, 10, nil)
	truth := full[:20]

	res, err := Tune(index.IVFFlat, 16, ds.Vectors.Data, queries, truth, TunerConfig{
		K: 10, RecallTarget: 0.9,
		Search: index.SearchParams{Nprobe: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recall < 0.9 {
		t.Fatalf("tuner picked candidate below target: recall %.3f", res.Recall)
	}
	if res.Params.Nlist <= 0 || res.AvgLatency <= 0 || res.BuildTime <= 0 {
		t.Fatalf("result fields unset: %+v", res)
	}
}

func TestTuneFallsBackWhenTargetUnreachable(t *testing.T) {
	ds := dataset.Small(600, 16, 6)
	queries := [][]float32{ds.Queries.Row(0), ds.Queries.Row(1)}
	truth := ds.GroundTruth(vec.L2, 10, nil)[:2]
	// Absurd target: must return the highest-recall candidate rather
	// than failing.
	res, err := Tune(index.IVFPQFS, 16, ds.Vectors.Data, queries, truth, TunerConfig{
		K: 10, RecallTarget: 1.01,
		Search: index.SearchParams{Nprobe: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Recall <= 0 {
		t.Fatalf("fallback result: %+v", res)
	}
}

func TestTuneValidation(t *testing.T) {
	if _, err := Tune(index.IVFFlat, 8, nil, nil, nil, TunerConfig{}); err == nil {
		t.Fatal("empty inputs should fail")
	}
	if _, err := Tune(index.IVFFlat, 8, make([]float32, 80), [][]float32{{1}}, nil, TunerConfig{}); err == nil {
		t.Fatal("misaligned truth should fail")
	}
}

// TestSelectType: every table type gives way to an exact flat index
// below MinIndexRows rows and keeps its own from there on.
func TestSelectType(t *testing.T) {
	for _, typ := range []index.Type{index.Flat, index.HNSW, index.HNSWSQ, index.IVFFlat, index.IVFPQ, index.IVFPQFS, index.DiskANN} {
		for _, n := range []int{0, 1, 750, MinIndexRows - 1} {
			if got := SelectType(typ, n); got != index.Flat {
				t.Errorf("SelectType(%s, %d) = %s, want %s", typ, n, got, index.Flat)
			}
		}
		for _, n := range []int{MinIndexRows, 3000, 1 << 20} {
			if got := SelectType(typ, n); got != typ {
				t.Errorf("SelectType(%s, %d) = %s, want %s", typ, n, got, typ)
			}
		}
	}
}
