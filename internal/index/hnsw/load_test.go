package hnsw

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

// --- golden blobs -----------------------------------------------------------
//
// testdata/golden_*.bin were written by Save at the commit before the
// flat layout (node structs, binary.Read loader), from goldenFloats and
// goldenParams below; golden_results.json holds what that build
// answered. They pin the wire format: today's Load must open them,
// answer the same, and Save them back byte for byte.

const (
	goldenN   = 300
	goldenDim = 8
	goldenNQ  = 8
	goldenK   = 5
)

// goldenFloats is a fixed LCG stream in [0,1), independent of any
// dataset generator that may change.
func goldenFloats(n int, seed uint32) []float32 {
	out := make([]float32, n)
	s := seed
	for i := range out {
		s = s*1664525 + 1013904223
		out[i] = float32(s>>8) / (1 << 24)
	}
	return out
}

func goldenParams() index.BuildParams {
	return index.BuildParams{Dim: goldenDim, Metric: vec.L2, M: 6, EfConstruction: 40, Seed: 3}.WithDefaults()
}

type goldenHit struct {
	ID   int64  `json:"id"`
	Dist uint32 `json:"dist_bits"`
}

func checkGoldenHits(t *testing.T, what string, got []index.Candidate, want []goldenHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, golden has %d", what, len(got), len(want))
	}
	for i, w := range want {
		if got[i].ID != w.ID || math.Float32bits(got[i].Dist) != w.Dist {
			t.Fatalf("%s hit %d: got id %d dist %v, golden id %d dist %v",
				what, i, got[i].ID, got[i].Dist, w.ID, math.Float32frombits(w.Dist))
		}
	}
}

func TestGoldenBlobs(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var results map[string]map[string][][]goldenHit
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	qs := goldenFloats(goldenNQ*goldenDim, 2)
	for _, quantized := range []bool{false, true} {
		name := "hnsw"
		if quantized {
			name = "hnswsq"
		}
		blob, err := os.ReadFile("testdata/golden_" + name + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(goldenParams(), quantized)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Load(blob); err != nil {
			t.Fatalf("%s: loading golden blob: %v", name, err)
		}
		var resaved bytes.Buffer
		if err := ix.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), blob) {
			t.Fatalf("%s: re-saved blob differs from the golden one", name)
		}
		for qi := 0; qi < goldenNQ; qi++ {
			q := qs[qi*goldenDim : (qi+1)*goldenDim]
			got, err := ix.SearchWithFilter(q, goldenK, nil, index.SearchParams{Ef: 32})
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenHits(t, name+" top-k", got, results[name]["topk"][qi])

			it, err := ix.SearchIterator(q, index.SearchParams{Ef: 32})
			if err != nil {
				t.Fatal(err)
			}
			var stream []index.Candidate
			for _, n := range []int{7, 16, 16} {
				batch, err := it.Next(n)
				if err != nil {
					t.Fatal(err)
				}
				stream = append(stream, batch...)
			}
			it.Close()
			checkGoldenHits(t, name+" iterator", stream, results[name]["iter"][qi])
		}

		// Same data and seed must still build the same graph: the flat
		// layout changed where edges are stored, not which are chosen.
		// Graph choices hang on float comparisons, so this half is pinned
		// to the architecture the golden files were written on.
		if runtime.GOARCH != "amd64" {
			continue
		}
		rebuilt, err := New(goldenParams(), quantized)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, goldenN)
		for i := range ids {
			ids[i] = int64(i)
		}
		if err := rebuilt.AddWithIDs(goldenFloats(goldenN*goldenDim, 1), ids); err != nil {
			t.Fatal(err)
		}
		var rebuiltBlob bytes.Buffer
		if err := rebuilt.Save(&rebuiltBlob); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuiltBlob.Bytes(), blob) {
			t.Fatalf("%s: a fresh build of the golden data no longer saves the golden bytes", name)
		}
	}
}

// --- load cost ---------------------------------------------------------------

const (
	segN   = 750
	segDim = 128
)

// segmentBlob builds the index of one benchmark-sized segment
// (750 × 128-d, default M and ef_construction) and serializes it.
func segmentBlob(tb testing.TB, quantized bool) (index.BuildParams, []byte, *dataset.Dataset) {
	tb.Helper()
	ds := dataset.Small(segN, segDim, 17)
	p := index.BuildParams{Dim: segDim, Metric: vec.L2, Seed: 9}.WithDefaults()
	ix, err := New(p, quantized)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int64, segN)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return p, buf.Bytes(), ds
}

func TestLoadAllocsBounded(t *testing.T) {
	p, blob, _ := segmentBlob(t, false)
	ix, err := New(p, false)
	if err != nil {
		t.Fatal(err)
	}
	load := func() {
		if err := ix.Load(blob); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, load); allocs > 8 {
		t.Errorf("Load of a %d × %d-d segment makes %.0f allocations, want <= 8", segN, segDim, allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	load()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(blob))*11/10; got > limit {
		t.Errorf("Load allocates %d bytes for a %d-byte blob, want <= %d", got, len(blob), limit)
	}
}

func TestIteratorAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	p, blob, ds := segmentBlob(t, false)
	ix, err := New(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(blob); err != nil {
		t.Fatal(err)
	}
	q := ds.Queries.Row(0)
	allocs := testing.AllocsPerRun(50, func() {
		it, err := ix.SearchIterator(q, index.SearchParams{Ef: 64})
		if err != nil {
			t.Fatal(err)
		}
		if c, err := it.Next(16); err != nil || len(c) != 16 {
			t.Fatalf("Next(16) = %d candidates, err %v", len(c), err)
		}
		it.Close()
	})
	if allocs > 4 {
		t.Errorf("iterator open + Next(16) + Close makes %.0f allocations, want <= 4", allocs)
	}
}

// MemoryBytes feeds the index cache's accounting and Table VI, so it
// must track what the slabs really hold — for a built index (grown by
// appends) and a loaded one (sized exactly) alike.
func TestMemoryBytesTracksSlabs(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		p, blob, ds := segmentBlob(t, quantized)
		loaded, err := New(p, quantized)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Load(blob); err != nil {
			t.Fatal(err)
		}
		built, err := New(p, quantized)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, segN)
		for i := range ids {
			ids[i] = int64(i)
		}
		if err := built.AddWithIDs(ds.Vectors.Data, ids); err != nil {
			t.Fatal(err)
		}
		for name, ix := range map[string]*Index{"built": built, "loaded": loaded} {
			held := 8*cap(ix.ids) + 4*(cap(ix.levels)+cap(ix.upperOff)+cap(ix.links0)+cap(ix.upper))
			switch st := ix.store.(type) {
			case *floatStore:
				held += 4 * cap(st.data)
			case *sqStore:
				held += cap(st.codes) + 4*(cap(st.sums)+cap(st.sumSqs)) + 4*(len(st.sq.Min)+len(st.sq.Step))
			}
			got := ix.MemoryBytes()
			if diff := math.Abs(float64(got) - float64(held)); diff > 0.05*float64(held) {
				t.Errorf("quantized=%v %s: MemoryBytes %d, slabs hold %d", quantized, name, got, held)
			}
		}
		// One AddWithIDs call sizes its slabs up front, so building
		// must not hold much more than loading the same graph.
		if b, l := built.MemoryBytes(), loaded.MemoryBytes(); float64(b) > 1.10*float64(l) {
			t.Errorf("quantized=%v: built index holds %d bytes, loaded %d", quantized, b, l)
		}
	}
}

// --- corrupt blobs -------------------------------------------------------------

// smallBlob is a graph small enough to attack byte by byte, with
// enough nodes to have upper layers.
func smallBlob(t *testing.T, quantized bool) (index.BuildParams, []byte) {
	t.Helper()
	const n, dim = 60, 4
	p := index.BuildParams{Dim: dim, Metric: vec.L2, M: 4, EfConstruction: 20, Seed: 2}.WithDefaults()
	ix, err := New(p, quantized)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(goldenFloats(n*dim, 5), ids); err != nil {
		t.Fatal(err)
	}
	if ix.maxLevel == 0 {
		t.Fatal("test graph has no upper layer")
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

// loadAndProbe loads blob into a fresh index and, if it is accepted,
// drives all three search entry points over it. A rejected blob must
// be ErrCorrupt; an accepted one must not panic. It reports whether
// the blob loaded.
func loadAndProbe(t *testing.T, what string, p index.BuildParams, quantized bool, blob []byte) bool {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", what, r)
		}
	}()
	ix, err := New(p, quantized)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(blob); err != nil {
		if !errors.Is(err, index.ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap index.ErrCorrupt", what, err)
		}
		return false
	}
	q := goldenFloats(p.Dim, 6)
	if _, err := ix.SearchWithFilter(q, 5, nil, index.SearchParams{Ef: 16}); err != nil {
		t.Fatalf("%s: search: %v", what, err)
	}
	if _, err := ix.SearchWithRange(q, 0.5, nil, index.SearchParams{Ef: 16}); err != nil {
		t.Fatalf("%s: range search: %v", what, err)
	}
	it, err := ix.SearchIterator(q, index.SearchParams{Ef: 16})
	if err != nil {
		t.Fatalf("%s: iterator: %v", what, err)
	}
	defer it.Close()
	for {
		batch, err := it.Next(16)
		if err != nil {
			t.Fatalf("%s: iterator: %v", what, err)
		}
		if len(batch) == 0 {
			return true
		}
	}
}

func TestLoadCorruptBlob(t *testing.T) {
	// Header layout: magic u32 | kind u8 | dim u32 | entry i64 |
	// maxLevel u32 | nNodes u64.
	headerFields := []struct {
		name      string
		off, size int
	}{
		{"magic", 0, 4}, {"kind", 4, 1}, {"dim", 5, 4}, {"entry", 9, 8}, {"maxLevel", 17, 4}, {"nNodes", 21, 8},
	}
	for _, quantized := range []bool{false, true} {
		p, blob := smallBlob(t, quantized)
		if !loadAndProbe(t, "intact blob", p, quantized, blob) {
			t.Fatal("intact blob rejected")
		}

		// Truncation at every length, which covers every field boundary.
		for n := 0; n < len(blob); n++ {
			if loadAndProbe(t, "truncated", p, quantized, blob[:n]) {
				t.Fatalf("quantized=%v: blob truncated to %d of %d bytes loaded", quantized, n, len(blob))
			}
		}
		if loadAndProbe(t, "trailing byte", p, quantized, append(bytes.Clone(blob), 0)) {
			t.Fatalf("quantized=%v: blob with a trailing byte loaded", quantized)
		}

		// Each header field set to hostile values and to every one-bit
		// flip of itself.
		for _, f := range headerFields {
			field := blob[f.off : f.off+f.size]
			var orig uint64
			for i := f.size - 1; i >= 0; i-- {
				orig = orig<<8 | uint64(field[i])
			}
			values := []uint64{0, 1, orig + 1, orig - 1, 1 << 31, math.MaxUint32, 1 << 62, math.MaxUint64}
			for bit := 0; bit < 8*f.size; bit++ {
				values = append(values, orig^(1<<bit))
			}
			for _, v := range values {
				if f.size < 8 {
					v &= 1<<(8*f.size) - 1
				}
				if v == orig {
					continue
				}
				mutated := bytes.Clone(blob)
				for i := 0; i < f.size; i++ {
					mutated[f.off+i] = byte(v >> (8 * i))
				}
				loaded := loadAndProbe(t, f.name, p, quantized, mutated)
				// Only the entry point can change and still describe a
				// valid graph (another node of the top level).
				if loaded && f.name != "entry" {
					t.Fatalf("quantized=%v: %s = %#x (was %#x) loaded", quantized, f.name, v, orig)
				}
			}
		}

		// A 30-byte blob claiming 2^31 nodes must be refused before
		// anything is sized from the claim.
		huge := bytes.Clone(blob[:30])
		binary.LittleEndian.PutUint64(huge[21:], 1<<31)
		if loadAndProbe(t, "huge node count", p, quantized, huge) {
			t.Fatal("30-byte blob claiming 2^31 nodes loaded")
		}

		// Seeded single-byte damage anywhere in the body: whatever is
		// accepted must be safe to search.
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 4000; i++ {
			mutated := bytes.Clone(blob)
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
			loadAndProbe(t, "bit flip", p, quantized, mutated)
		}
	}
}

// Loading must leave the index growable: AddWithIDs after Load appends
// to the same slabs Load filled.
func TestAddAfterLoad(t *testing.T) {
	p, blob := smallBlob(t, false)
	ix, err := New(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(blob); err != nil {
		t.Fatal(err)
	}
	before := ix.Count()
	extra := goldenFloats(40*p.Dim, 8)
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(before + i)
	}
	if err := ix.AddWithIDs(extra, ids); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		res, err := ix.SearchWithFilter(extra[i*p.Dim:(i+1)*p.Dim], 1, nil, index.SearchParams{Ef: 32})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != id {
			t.Fatalf("vector added after Load not found: got %+v, want id %d", res, id)
		}
	}
}

// --- benchmarks ------------------------------------------------------------------

func BenchmarkLoad(b *testing.B) {
	p, blob, _ := segmentBlob(b, false)
	ix, err := New(p, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Load(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterator(b *testing.B) {
	p, blob, ds := segmentBlob(b, false)
	ix, err := New(p, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Load(blob); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := ix.SearchIterator(ds.Queries.Row(i%ds.Queries.Rows()), index.SearchParams{Ef: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := it.Next(16); err != nil {
			b.Fatal(err)
		}
		it.Close()
	}
}
