package lsm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"

	"blendhouse/internal/autoindex"
	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// autoOptions is an (id, v) table of 8-d HNSW under AutoIndex whose
// ingest cuts segments of up to 2 048 rows.
func autoOptions(name string) Options {
	opts := idVecOptions(name, index.HNSW, 8)
	opts.AutoIndex = true
	opts.SegmentRows = 2048
	return opts
}

// idBatch is lcgBatch with ids start, start+1, …
func idBatch(opts Options, start, n int) *storage.RowBatch {
	b := lcgBatch(opts, n, uint32(start)+1)
	for i := range b.Col("id").Ints {
		b.Col("id").Ints[i] += int64(start)
	}
	return b
}

// checkSegmentType fails unless seg's meta records typ, its index opens
// as typ, and its vectors live in the index blob alone (no col_v.bin).
func checkSegmentType(t *testing.T, tab *Table, m *storage.SegmentMeta, typ index.Type) {
	t.Helper()
	if index.Type(m.IndexType) != typ {
		t.Fatalf("%s (%d rows): index_type %q, want %q", m.Name, m.Rows, m.IndexType, typ)
	}
	ix, err := tab.OpenIndex(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Type() != typ || ix.Count() != m.Rows {
		t.Fatalf("%s opens as %s of %d rows, want %s of %d", m.Name, ix.Type(), ix.Count(), typ, m.Rows)
	}
	if _, err := tab.Store().Get(storage.ColumnKey(tab.Name(), m.Name, "v")); !storage.IsNotFound(err) {
		t.Fatalf("%s: col_v.bin written beside an index that keeps the rows (err %v)", m.Name, err)
	}
}

// TestSmallSegmentIsFlat: a flush of autoindex.MinIndexRows-1 rows
// writes a flat segment, one of MinIndexRows rows the table's graph.
func TestSmallSegmentIsFlat(t *testing.T) {
	for _, c := range []struct {
		n    int
		want index.Type
	}{{autoindex.MinIndexRows - 1, index.Flat}, {autoindex.MinIndexRows, index.HNSW}} {
		t.Run(fmt.Sprint(c.n), func(t *testing.T) {
			opts := autoOptions("small")
			tab, err := Create(storage.NewMemStore(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.EnableWAL(walTestConfig()); err != nil {
				t.Fatal(err)
			}
			defer tab.CloseWAL()
			if err := tab.Insert(context.Background(), idBatch(opts, 0, c.n)); err != nil {
				t.Fatal(err)
			}
			if err := tab.FlushWAL(); err != nil {
				t.Fatal(err)
			}
			segs := tab.Segments()
			if len(segs) != 1 || segs[0].Rows != c.n {
				t.Fatalf("flush cut %d segments, want one of %d rows", len(segs), c.n)
			}
			checkSegmentType(t, tab, segs[0], c.want)
		})
	}
}

// TestCompactSmallSegmentsBuildsGraph: two 600-row flat segments merge
// into one segment of 1 200 rows, which gets the table's graph.
func TestCompactSmallSegmentsBuildsGraph(t *testing.T) {
	opts := autoOptions("merge")
	tab, err := Create(storage.NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ingest(t, tab, idBatch(opts, i*600, 600))
	}
	for _, m := range tab.Segments() {
		checkSegmentType(t, tab, m, index.Flat)
	}
	if merged, err := tab.CompactOnce(CompactionPolicy{MinSegments: 2}); err != nil || merged != 2 {
		t.Fatalf("merged %d segments, err %v", merged, err)
	}
	segs := tab.Segments()
	if len(segs) != 1 || segs[0].Rows != 1200 || segs[0].Level != 1 {
		t.Fatalf("compaction left %d segments, want one level-1 segment of 1200 rows", len(segs))
	}
	checkSegmentType(t, tab, segs[0], index.HNSW)
}

// segmentTop10 answers a top-10 over every live segment of tab through
// its index, keeping the rows keep accepts and no deleted one. The
// graph searches with a beam wider than any segment, so a connected
// graph answers exactly.
func segmentTop10(t *testing.T, tab *Table, q []float32, keep func(id int64) bool) []index.Candidate {
	t.Helper()
	v, _ := tab.Acquire()
	defer v.Release()
	top := index.NewTopK(10)
	for _, s := range v.Segments {
		col, err := s.Reader.ReadColumn(context.Background(), "id")
		if err != nil {
			t.Fatal(err)
		}
		f := bitset.New(len(col.Ints))
		for r, id := range col.Ints {
			if (s.Deletes == nil || !s.Deletes.Test(r)) && keep(id) {
				f.Set(r)
			}
		}
		ix, err := tab.loadIndex(context.Background(), tab.Store(), s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.SearchWithFilter(q, 10, f, index.SearchParams{Ef: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res {
			top.Push(index.Candidate{ID: col.Ints[c.ID], Dist: c.Dist})
		}
	}
	return top.Results()
}

// TestMixedSegmentsAnswerExactly: a table holding flat and graph
// segments answers top-10, plain and filtered, exactly like a
// brute-force scan of its rows — before and after Open, and after a
// DELETE.
func TestMixedSegmentsAnswerExactly(t *testing.T) {
	opts := autoOptions("mixed")
	store := storage.NewMemStore()
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int64][]float32{}
	start := 0
	for _, n := range []int{600, 1200, 300} {
		b := idBatch(opts, start, n)
		for i, id := range b.Col("id").Ints {
			rows[id] = b.Col("v").Vector(i)
		}
		ingest(t, tab, b)
		start += n
	}
	types := map[string]int{}
	for _, m := range tab.Segments() {
		types[m.IndexType]++
	}
	if types[string(index.Flat)] != 2 || types[string(index.HNSW)] != 1 {
		t.Fatalf("segment types %v, want 2 flat and 1 HNSW", types)
	}
	queries := [][]float32{rows[7], rows[950], rows[1999], idBatch(opts, 5000, 1).Col("v").Vecs}
	all := func(int64) bool { return true }
	third := func(id int64) bool { return id%3 == 0 }
	check := func(stage string, tab *Table) {
		t.Helper()
		for qi, q := range queries {
			for name, keep := range map[string]func(int64) bool{"all": all, "id%3": third} {
				var want []index.Candidate
				for id, v := range rows {
					if keep(id) {
						want = append(want, index.Candidate{ID: id, Dist: vec.L2Squared(q, v)})
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].Dist != want[j].Dist {
						return want[i].Dist < want[j].Dist
					}
					return want[i].ID < want[j].ID
				})
				got := segmentTop10(t, tab, q, keep)
				if len(got) != 10 {
					t.Fatalf("%s, query %d, %s: %d results", stage, qi, name, len(got))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("%s, query %d, %s: rank %d is id %d, brute force says %d", stage, qi, name, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
	check("written", tab)
	reopened, err := Open(store, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", reopened)

	// Delete the nearest rows of the first queries, from flat and graph
	// segments alike.
	del := []int64{7, 950, 1999, 0, 1, 1500}
	if err := reopened.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	defer reopened.CloseWAL()
	if n, err := reopened.DeleteByKey(context.Background(), "id", del); err != nil || n != len(del) {
		t.Fatalf("delete: %d rows, %v", n, err)
	}
	for _, id := range del {
		delete(rows, id)
	}
	check("deleted", reopened)
	again, err := Open(store, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	check("deleted and reopened", again)
}

// TestUnknownIndexTypeIsCorrupt: a segment meta recording a type no
// index registers fails the index open with index.ErrCorrupt.
func TestUnknownIndexTypeIsCorrupt(t *testing.T) {
	opts := autoOptions("bogus")
	store := storage.NewMemStore()
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, tab, idBatch(opts, 0, 100))
	seg := tab.Segments()[0].Name
	key := storage.MetaKey(opts.Name, seg)
	raw, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["index_type"] = "NOSUCHTYPE"
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, raw); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(store, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.OpenIndex(seg); !errors.Is(err, index.ErrCorrupt) {
		t.Fatalf("open of an index of unknown type: %v, want index.ErrCorrupt", err)
	}
}
