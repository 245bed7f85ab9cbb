package diskann

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

const (
	dN   = 1500
	dDim = 24
)

func builtIndex(t *testing.T) (*Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Small(dN, dDim, 21)
	ix, err := New(index.BuildParams{Dim: dDim, Metric: vec.L2, Seed: 9}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, dN)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

func TestGraphDegreeBound(t *testing.T) {
	ix, _ := builtIndex(t)
	for i, adj := range ix.adj {
		if len(adj) > ix.params.DegreeBound {
			t.Fatalf("node %d degree %d > bound %d", i, len(adj), ix.params.DegreeBound)
		}
		for _, nb := range adj {
			if int(nb) == i {
				t.Fatalf("node %d has a self-loop", i)
			}
			if int(nb) >= dN {
				t.Fatalf("node %d has out-of-range edge %d", i, nb)
			}
		}
	}
}

func TestRebuildAfterAdd(t *testing.T) {
	ix, ds := builtIndex(t)
	// Adding more vectors marks the graph stale; the next search
	// rebuilds transparently.
	extra := dataset.Small(100, dDim, 22)
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(dN + i)
	}
	if err := ix.AddWithIDs(extra.Vectors.Data, ids); err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchWithFilter(ds.Queries.Row(0), 5, nil, index.SearchParams{Ef: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results after rebuild", len(res))
	}
	if ix.Count() != dN+100 {
		t.Fatalf("Count = %d", ix.Count())
	}
}

func TestDiskSearcherMatchesInMemory(t *testing.T) {
	ix, ds := builtIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dsk, err := OpenDiskSearcher(bytes.NewReader(buf.Bytes()), vec.L2, 256)
	if err != nil {
		t.Fatal(err)
	}
	if dsk.Count() != dN {
		t.Fatalf("disk Count = %d", dsk.Count())
	}
	p := index.SearchParams{Ef: 64}
	for qi := 0; qi < 10; qi++ {
		mem, err := ix.SearchWithFilter(ds.Queries.Row(qi), 10, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := dsk.Search(ds.Queries.Row(qi), 10, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(mem) != len(disk) {
			t.Fatalf("q%d: %d vs %d results", qi, len(mem), len(disk))
		}
		for i := range mem {
			if mem[i].ID != disk[i].ID || mem[i].Dist != disk[i].Dist {
				t.Fatalf("q%d result %d: mem %+v disk %+v", qi, i, mem[i], disk[i])
			}
		}
	}
}

func TestDiskSearcherBoundedMemoryAndReads(t *testing.T) {
	ix, ds := builtIndex(t)
	path := filepath.Join(t.TempDir(), "graph.vamana")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	// Tiny cache: far fewer slots than nodes visited.
	dsk, err := OpenDiskSearcher(rf, vec.L2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dsk.Search(ds.Queries.Row(0), 10, index.SearchParams{Ef: 64}); err != nil {
		t.Fatal(err)
	}
	first := dsk.Reads
	if first == 0 {
		t.Fatal("no storage reads recorded")
	}
	if int(first) >= dN {
		t.Fatalf("beam search read %d of %d nodes — not sublinear", first, dN)
	}
	// Repeated identical search with a warm (if small) cache must not
	// read more than the first.
	if _, err := dsk.Search(ds.Queries.Row(0), 10, index.SearchParams{Ef: 64}); err != nil {
		t.Fatal(err)
	}
	if dsk.Reads-first > first {
		t.Fatalf("second search read more than the first: %d then %d", first, dsk.Reads-first)
	}
	if len(dsk.cache) > 32 {
		t.Fatalf("cache grew past its limit: %d", len(dsk.cache))
	}
}

func TestDiskSearcherRejectsCorruptHeader(t *testing.T) {
	if _, err := OpenDiskSearcher(bytes.NewReader(make([]byte, 4)), vec.L2, 8); err == nil {
		t.Fatal("short header should fail")
	}
	bad := make([]byte, headerSize)
	if _, err := OpenDiskSearcher(bytes.NewReader(bad), vec.L2, 8); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestEmptyDiskANN(t *testing.T) {
	ix, err := New(index.BuildParams{Dim: 4}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchWithFilter([]float32{0, 0, 0, 0}, 3, nil, index.SearchParams{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty search: %v, %v", res, err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := New(index.BuildParams{Dim: 4}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Load(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if re.Count() != 0 {
		t.Fatalf("reloaded empty count = %d", re.Count())
	}
}
