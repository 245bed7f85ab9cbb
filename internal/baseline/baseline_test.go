package baseline_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"blendhouse/internal/baseline"
	"blendhouse/internal/baseline/bh"
	"blendhouse/internal/baseline/milvuslike"
	"blendhouse/internal/baseline/pgvectorlike"
	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/core"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

const (
	bDim = 16
	bN   = 1200
)

// stores builds all three systems loaded with the same data.
func stores(t *testing.T) (map[string]baseline.VectorStore, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Small(bN, bDim, 31)
	attrs := make([]int64, bN)
	for i := range attrs {
		attrs[i] = int64(i) // attr == id: selectivity ranges are easy to reason about
	}
	out := map[string]baseline.VectorStore{
		"bh":       bh.New(bh.Config{Engine: core.Config{SegmentRows: 300, Seed: 4}, M: 8, EfConstr: 64}, storage.NewMemStore()),
		"milvus":   milvuslike.New(milvuslike.Config{SegmentRows: 300, Seed: 4, M: 8, EfConstruction: 64, QueryOverhead: 1}, storage.NewMemStore()),
		"pgvector": pgvectorlike.New(pgvectorlike.Config{Seed: 4, M: 8, EfConstruction: 64, QueryOverhead: 1}, storage.NewMemStore()),
	}
	for name, s := range out {
		if err := s.Load(ds.Vectors.Data, bDim, attrs); err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
	}
	return out, ds
}

func TestAllSystemsUnfilteredRecall(t *testing.T) {
	sys, ds := stores(t)
	truth := ds.GroundTruth(vec.L2, 10, nil)
	for name, s := range sys {
		got := make([][]int64, ds.Queries.Rows())
		for qi := range got {
			ids, err := s.Search(ds.Queries.Row(qi), 10, baseline.AttrMin, baseline.AttrMax, index.SearchParams{Ef: 96})
			if err != nil {
				t.Fatalf("%s search: %v", name, err)
			}
			got[qi] = ids
		}
		if r := dataset.Recall(truth, got); r < 0.9 {
			t.Errorf("%s unfiltered recall = %.3f", name, r)
		}
	}
}

func TestFilteredRecallShapesMatchPaper(t *testing.T) {
	sys, ds := stores(t)
	// Highly selective filter: only rows 0..59 qualify (5%).
	lo, hi := int64(0), int64(59)
	keep := func(i int) bool { return i >= 0 && i <= 59 }
	truth := ds.GroundTruth(vec.L2, 10, keep)
	recalls := map[string]float64{}
	for name, s := range sys {
		got := make([][]int64, ds.Queries.Rows())
		for qi := range got {
			ids, err := s.Search(ds.Queries.Row(qi), 10, lo, hi, index.SearchParams{Ef: 96})
			if err != nil {
				t.Fatalf("%s filtered search: %v", name, err)
			}
			for _, id := range ids {
				if id < lo || id > hi {
					t.Fatalf("%s returned id %d outside filter", name, id)
				}
			}
			got[qi] = ids
		}
		recalls[name] = dataset.Recall(truth, got)
	}
	t.Logf("filtered recalls: %v", recalls)
	// The paper's shape: BlendHouse (CBO → brute force) and Milvus
	// (small-set fallback) stay accurate; pgvector's non-iterative
	// post-filter collapses.
	if recalls["bh"] < 0.95 {
		t.Errorf("BlendHouse filtered recall = %.3f, want ~1", recalls["bh"])
	}
	if recalls["milvus"] < 0.95 {
		t.Errorf("Milvus-like filtered recall = %.3f, want ~1", recalls["milvus"])
	}
	if recalls["pgvector"] > 0.6 {
		t.Errorf("pgvector-like filtered recall = %.3f, expected collapse (<0.6)", recalls["pgvector"])
	}
	if recalls["pgvector"] >= recalls["bh"] {
		t.Errorf("shape violated: pgvector (%.3f) >= BlendHouse (%.3f)", recalls["pgvector"], recalls["bh"])
	}
}

func TestMemoryReporting(t *testing.T) {
	sys, _ := stores(t)
	for name, s := range sys {
		if n, err := s.MemoryBytes(); err != nil || n <= 0 {
			t.Errorf("%s MemoryBytes = %d, %v", name, n, err)
		}
	}
}

// TestMemoryBytesFailsOnUnreadableIndex: an index blob that cannot be
// read fails BlendHouse's sum instead of leaving it short.
func TestMemoryBytesFailsOnUnreadableIndex(t *testing.T) {
	ds := dataset.Small(bN, bDim, 31)
	fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
	s := bh.New(bh.Config{Engine: core.Config{SegmentRows: 300, Seed: 4}, M: 8, EfConstr: 64}, fs)
	if err := s.Load(ds.Vectors.Data, bDim, make([]int64, bN)); err != nil {
		t.Fatal(err)
	}
	if n, err := s.MemoryBytes(); err != nil || n <= 0 {
		t.Fatalf("MemoryBytes = %d, %v", n, err)
	}
	// Armed after the load: the second index GET fails.
	var idxGets atomic.Int64
	fs.SetHook(func(op storage.FaultOp, key string) error {
		if op == storage.FaultOpGet && strings.Contains(key, "idx_") && idxGets.Add(1) == 2 {
			return errors.New("injected: index GET failed")
		}
		return nil
	})
	if n, err := s.MemoryBytes(); err == nil {
		t.Fatalf("MemoryBytes = %d with an index unreadable, want an error", n)
	}
}

func TestLoadValidation(t *testing.T) {
	s := milvuslike.New(milvuslike.Config{}, storage.NewMemStore())
	if err := s.Load(make([]float32, 7), 2, nil); err == nil {
		t.Error("ragged load should fail")
	}
	p := pgvectorlike.New(pgvectorlike.Config{}, storage.NewMemStore())
	if err := p.Load(make([]float32, 4), 2, []int64{1}); err == nil {
		t.Error("attr arity mismatch should fail")
	}
	b := bh.New(bh.Config{}, storage.NewMemStore())
	if _, err := b.Search(make([]float32, 2), 1, baseline.AttrMin, baseline.AttrMax, index.SearchParams{}); err == nil {
		t.Error("search before load should fail")
	}
}
