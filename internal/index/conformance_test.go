// Conformance tests exercising every registered index type through the
// virtual-index interface — the pluggability contract of paper §III-A.
// Each type must pass the same behavioural battery: recall against the
// exact oracle, filtered search, range search, iterator semantics, and
// save/load round-trips.
package index_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/diskann"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	"blendhouse/internal/index/ivf"
	"blendhouse/internal/vec"
)

const (
	tN   = 2000
	tDim = 32
	tK   = 10
)

// minRecall is the recall@10 floor each type must clear on the easy
// clustered test set. Quantized and disk types get more slack.
var minRecall = map[index.Type]float64{
	index.Flat:    1.0,
	index.HNSW:    0.95,
	index.HNSWSQ:  0.90,
	index.IVFFlat: 0.80,
	index.IVFPQ:   0.55,
	index.IVFPQFS: 0.40,
	index.DiskANN: 0.90,
}

func buildParams(typ index.Type) index.BuildParams {
	p := index.BuildParams{Dim: tDim, Metric: vec.L2, Seed: 42, Nlist: 32, PQM: 8}
	return p.WithDefaults()
}

func searchParams() index.SearchParams {
	return index.SearchParams{Ef: 100, Nprobe: 12, RefineFactor: 8}
}

func buildIndex(t *testing.T, typ index.Type, ds *dataset.Dataset) index.Index {
	t.Helper()
	ix, err := index.New(typ, buildParams(typ))
	if err != nil {
		t.Fatalf("New(%s): %v", typ, err)
	}
	if ix.NeedsTrain() {
		if err := ix.Train(ds.Vectors.Data); err != nil {
			t.Fatalf("Train(%s): %v", typ, err)
		}
	}
	ids := make([]int64, ds.Vectors.Rows())
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		t.Fatalf("AddWithIDs(%s): %v", typ, err)
	}
	wireProvider(ix, ds)
	return ix
}

// wireProvider gives quantized IVF variants the refine stage the
// engine always wires (the paper's "RFlat" exact re-rank of σ·k ADC
// candidates).
func wireProvider(ix index.Index, ds *dataset.Dataset) {
	if iv, ok := ix.(*ivf.Index); ok {
		iv.SetRawProvider(func(id int64, out []float32) bool {
			if id < 0 || id >= int64(ds.Vectors.Rows()) {
				return false
			}
			copy(out, ds.Vectors.Row(int(id)))
			return true
		})
	}
}

func allTypes() []index.Type {
	return []index.Type{index.Flat, index.HNSW, index.HNSWSQ, index.IVFFlat, index.IVFPQ, index.IVFPQFS, index.DiskANN}
}

func TestRegistryListsAllTypes(t *testing.T) {
	reg := map[index.Type]bool{}
	for _, typ := range index.Registered() {
		reg[typ] = true
	}
	for _, typ := range allTypes() {
		if !reg[typ] {
			t.Errorf("type %s not registered", typ)
		}
	}
}

func TestNewUnknownType(t *testing.T) {
	if _, err := index.New("BOGUS", index.BuildParams{Dim: 4}); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestRecallAgainstExactOracle(t *testing.T) {
	ds := dataset.Small(tN, tDim, 1)
	truth := ds.GroundTruth(vec.L2, tK, nil)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			if ix.Count() != tN {
				t.Fatalf("Count = %d, want %d", ix.Count(), tN)
			}
			got := make([][]int64, ds.Queries.Rows())
			for qi := 0; qi < ds.Queries.Rows(); qi++ {
				res, err := ix.SearchWithFilter(ds.Queries.Row(qi), tK, nil, searchParams())
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]int64, len(res))
				for i, c := range res {
					ids[i] = c.ID
				}
				got[qi] = ids
			}
			r := dataset.Recall(truth, got)
			if r < minRecall[typ] {
				t.Fatalf("recall@%d = %.3f, want >= %.2f", tK, r, minRecall[typ])
			}
			t.Logf("recall@%d = %.3f", tK, r)
		})
	}
}

func TestResultsSortedAndDistinct(t *testing.T) {
	ds := dataset.Small(tN, tDim, 2)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			res, err := ix.SearchWithFilter(ds.Queries.Row(0), 20, nil, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int64]bool{}
			for i, c := range res {
				if i > 0 && res[i-1].Dist > c.Dist {
					t.Fatalf("results not sorted at %d: %v > %v", i, res[i-1].Dist, c.Dist)
				}
				if seen[c.ID] {
					t.Fatalf("duplicate id %d", c.ID)
				}
				seen[c.ID] = true
				if c.ID < 0 || c.ID >= tN {
					t.Fatalf("id %d out of range", c.ID)
				}
			}
		})
	}
}

func TestFilteredSearchHonorsBitset(t *testing.T) {
	ds := dataset.Small(tN, tDim, 3)
	// Allow only even ids.
	filter := bitset.New(tN)
	for i := 0; i < tN; i += 2 {
		filter.Set(i)
	}
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			res, err := ix.SearchWithFilter(ds.Queries.Row(1), tK, filter, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 0 {
				t.Fatal("no results with half-open filter")
			}
			for _, c := range res {
				if c.ID%2 != 0 {
					t.Fatalf("id %d violates filter", c.ID)
				}
			}
		})
	}
}

func TestFilterAllowsNothing(t *testing.T) {
	ds := dataset.Small(500, tDim, 4)
	empty := bitset.New(500)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			res, err := ix.SearchWithFilter(ds.Queries.Row(0), tK, empty, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 0 {
				t.Fatalf("empty filter returned %d results", len(res))
			}
		})
	}
}

func TestTinyFilterStillFindsAll(t *testing.T) {
	// With only 5 allowed ids, a conformant bitset scan must return all
	// 5 (the pre-filter contract: keep searching until the filtered set
	// is exhausted). Graph indexes may legitimately miss some under
	// extreme selectivity, so this is only asserted for flat and IVF
	// types, which scan lists exhaustively.
	ds := dataset.Small(1000, tDim, 5)
	filter := bitset.New(1000)
	allowed := []int{3, 77, 205, 512, 999}
	for _, i := range allowed {
		filter.Set(i)
	}
	for _, typ := range []index.Type{index.Flat, index.IVFFlat} {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			p := searchParams()
			p.Nprobe = 32 // probe everything
			res, err := ix.SearchWithFilter(ds.Queries.Row(0), 5, filter, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 5 {
				t.Fatalf("got %d results, want 5", len(res))
			}
		})
	}
}

func TestRangeSearchWithinRadius(t *testing.T) {
	ds := dataset.Small(tN, tDim, 6)
	q := ds.Queries.Row(0)
	// Pick a radius that captures roughly the 30 nearest per the oracle.
	truth := ds.GroundTruth(vec.L2, 30, nil)
	worst := vec.Distance(vec.L2, q, ds.Vectors.Row(int(truth[0][len(truth[0])-1])))
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			res, err := ix.SearchWithRange(q, worst, nil, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res {
				if c.Dist > worst {
					t.Fatalf("candidate at %v beyond radius %v", c.Dist, worst)
				}
				exact := vec.Distance(vec.L2, q, ds.Vectors.Row(int(c.ID)))
				// Quantized types report approximate distances; just
				// check exact types strictly.
				if typ == index.Flat && exact != c.Dist {
					t.Fatalf("flat distance mismatch: %v != %v", exact, c.Dist)
				}
			}
			if typ == index.Flat && len(res) != 30 {
				t.Fatalf("flat range found %d, want 30", len(res))
			}
			// Approximate types must still find a sizeable fraction.
			if len(res) < 10 {
				t.Fatalf("range search found only %d of ~30 in-range", len(res))
			}
		})
	}
}

func TestIteratorStreamsWithoutDuplicates(t *testing.T) {
	ds := dataset.Small(tN, tDim, 7)
	q := ds.Queries.Row(2)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			it, err := index.OpenIterator(ix, q, tK, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			seen := map[int64]bool{}
			total := 0
			for round := 0; round < 10; round++ {
				batch, err := it.Next(17)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) == 0 {
					break
				}
				for _, c := range batch {
					if seen[c.ID] {
						t.Fatalf("iterator re-emitted id %d", c.ID)
					}
					seen[c.ID] = true
				}
				total += len(batch)
			}
			if total < 50 {
				t.Fatalf("iterator yielded only %d candidates", total)
			}
		})
	}
}

func TestIteratorFirstBatchMatchesTopK(t *testing.T) {
	// The first k iterator results must largely agree with a direct
	// top-k search (identical for exact, near-identical for ANN).
	ds := dataset.Small(tN, tDim, 8)
	q := ds.Queries.Row(3)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			direct, err := ix.SearchWithFilter(q, tK, nil, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			it, err := index.OpenIterator(ix, q, tK, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			batch, err := it.Next(tK)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]bool{}
			for _, c := range direct {
				want[c.ID] = true
			}
			overlap := 0
			for _, c := range batch {
				if want[c.ID] {
					overlap++
				}
			}
			if overlap < tK*6/10 {
				t.Fatalf("iterator head overlaps direct top-k on only %d/%d", overlap, tK)
			}
		})
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := dataset.Small(tN, tDim, 9)
	q := ds.Queries.Row(4)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			before, err := ix.SearchWithFilter(q, tK, nil, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			fresh, err := index.New(typ, buildParams(typ))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Load(buf.Bytes()); err != nil {
				t.Fatalf("Load: %v", err)
			}
			wireProvider(fresh, ds)
			if fresh.Count() != ix.Count() {
				t.Fatalf("Count after load %d != %d", fresh.Count(), ix.Count())
			}
			after, err := fresh.SearchWithFilter(q, tK, nil, searchParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(before) != len(after) {
				t.Fatalf("result count changed: %d != %d", len(before), len(after))
			}
			for i := range before {
				if before[i].ID != after[i].ID || before[i].Dist != after[i].Dist {
					t.Fatalf("result %d changed: %+v != %+v", i, before[i], after[i])
				}
			}
		})
	}
}

// A damaged blob — from any index type — is a typed error at Load or a
// searchable index afterwards, never a panic or an allocation sized
// from a claim the blob cannot back.
func TestLoadCorruptBlobIsTyped(t *testing.T) {
	ds := dataset.Small(400, tDim, 12)
	q := ds.Queries.Row(0)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			var buf bytes.Buffer
			if err := buildIndex(t, typ, ds).Save(&buf); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()
			probe := func(what string, damaged []byte) (loaded bool) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic: %v", what, r)
					}
				}()
				fresh, err := index.New(typ, buildParams(typ))
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Load(damaged); err != nil {
					if !errors.Is(err, index.ErrCorrupt) {
						t.Fatalf("%s: error %v does not wrap index.ErrCorrupt", what, err)
					}
					return false
				}
				if _, err := fresh.SearchWithFilter(q, tK, nil, searchParams()); err != nil {
					t.Fatalf("%s: search: %v", what, err)
				}
				if _, err := fresh.SearchWithRange(q, 1, nil, searchParams()); err != nil {
					t.Fatalf("%s: range search: %v", what, err)
				}
				return true
			}
			if !probe("intact", blob) {
				t.Fatal("intact blob rejected")
			}
			// Every prefix of the header region, then a stride through
			// the body that lands on every byte alignment.
			for n := 0; n < len(blob); n++ {
				if probe("truncated", blob[:n]) {
					t.Fatalf("blob truncated to %d of %d bytes loaded", n, len(blob))
				}
				if n > 256 {
					n += 96
				}
			}
			if probe("trailing byte", append(bytes.Clone(blob), 0)) {
				t.Fatal("blob with a trailing byte loaded")
			}
			// Every bit of the header region, then seeded damage anywhere.
			for bit := 0; bit < 8*40; bit++ {
				damaged := bytes.Clone(blob)
				damaged[bit/8] ^= 1 << (bit % 8)
				probe("header bit flip", damaged)
			}
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 300; i++ {
				damaged := bytes.Clone(blob)
				damaged[rng.Intn(len(damaged))] ^= 1 << rng.Intn(8)
				probe("bit flip", damaged)
			}
		})
	}
}

func TestLoadRejectsWrongType(t *testing.T) {
	ds := dataset.Small(300, tDim, 10)
	hn := buildIndex(t, index.HNSW, ds)
	var buf bytes.Buffer
	if err := hn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fl, err := index.New(index.Flat, buildParams(index.Flat))
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Load(buf.Bytes()); err == nil {
		t.Fatal("loading HNSW blob into flat index should fail")
	}
}

func TestDimensionMismatchErrors(t *testing.T) {
	ds := dataset.Small(300, tDim, 11)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix := buildIndex(t, typ, ds)
			if _, err := ix.SearchWithFilter(make([]float32, tDim+1), 5, nil, searchParams()); err == nil {
				t.Error("query dim mismatch should fail")
			}
			if err := ix.AddWithIDs(make([]float32, 7), []int64{1, 2}); err == nil {
				t.Error("ragged add should fail")
			}
		})
	}
}

func TestMemoryBytesOrdering(t *testing.T) {
	// Table VI's shape: HNSW > HNSWSQ > IVFPQFS.
	ds := dataset.Small(tN, tDim, 12)
	sizes := map[index.Type]int64{}
	for _, typ := range []index.Type{index.HNSW, index.HNSWSQ, index.IVFPQFS} {
		ix := buildIndex(t, typ, ds)
		sizes[typ] = ix.MemoryBytes()
		if sizes[typ] <= 0 {
			t.Fatalf("%s MemoryBytes = %d", typ, sizes[typ])
		}
	}
	if !(sizes[index.HNSW] > sizes[index.HNSWSQ] && sizes[index.HNSWSQ] > sizes[index.IVFPQFS]) {
		t.Fatalf("memory ordering violated: %v", sizes)
	}
}

func TestEmptyIndexSearches(t *testing.T) {
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			ix, err := index.New(typ, buildParams(typ))
			if err != nil {
				t.Fatal(err)
			}
			q := make([]float32, tDim)
			res, err := ix.SearchWithFilter(q, 5, nil, searchParams())
			if err != nil {
				t.Fatalf("search on empty index: %v", err)
			}
			if len(res) != 0 {
				t.Fatalf("empty index returned %d results", len(res))
			}
		})
	}
}

func TestParseKV(t *testing.T) {
	p, err := index.ParseKV(0, vec.L2, []string{"DIM=960", "M=32", "EF_CONSTRUCTION=100", "METRIC=Cosine"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim != 960 || p.M != 32 || p.EfConstruction != 100 || p.Metric != vec.Cosine {
		t.Fatalf("parsed %+v", p)
	}
	if _, err := index.ParseKV(0, vec.L2, []string{"M=16"}); err == nil {
		t.Error("missing DIM should fail")
	}
	if _, err := index.ParseKV(16, vec.L2, []string{"BOGUS=1"}); err == nil {
		t.Error("unknown key should fail")
	}
	if _, err := index.ParseKV(16, vec.L2, []string{"M=abc"}); err == nil {
		t.Error("non-integer should fail")
	}
	if _, err := index.ParseKV(16, vec.L2, []string{"M16"}); err == nil {
		t.Error("malformed kv should fail")
	}
}
