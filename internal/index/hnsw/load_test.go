package hnsw

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

// --- golden blobs -----------------------------------------------------------
//
// testdata/golden_hnsw.bin and golden_hnswsq.bin are wire v1, written
// by Save at the commit before the flat layout (node structs,
// binary.Read loader), from goldenFloats and goldenParams below;
// golden_results.json holds what that build answered. They stand for
// every store written by an earlier build: today's Load must open
// them and answer the same. The *_v2.bin files are the same two
// indexes as the build that introduced wire v2 saved them, the *_v3.bin
// files as this build's Save writes them. Golden files are append-only:
// a new wire version adds files and changes none.

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

// asV1 rewrites a v2 blob as wire v1: the old magic and no padding,
// everything else byte for byte.
func asV1(v2 []byte) []byte {
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, len(v2)-3), magicV1)
	out = append(out, v2[4])
	return append(out, v2[8:]...)
}

// v3Layout locates the sections of a well-formed v3 blob (byte offsets
// from its start) — the test's own reading of the format, sharing
// nothing with Load.
type v3Layout struct {
	n, top                                  int
	ids, levels, off0, nbr0, upper, payload int
}

func layoutV3(blob []byte) v3Layout {
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(blob[off:])) }
	lay := v3Layout{n: int(binary.LittleEndian.Uint64(blob[24:])), top: u32(20), ids: 32}
	lay.levels = lay.ids + 8*lay.n
	lay.off0 = lay.levels + 4*lay.n
	lay.nbr0 = lay.off0 + 4*(lay.n+1)
	lay.upper = lay.nbr0 + 4*u32(lay.off0+4*lay.n)
	lay.payload = lay.upper
	for i := 0; i < lay.n; i++ {
		for l := u32(lay.levels + 4*i); l > 0; l-- {
			lay.payload += 4 + 4*u32(lay.payload)
		}
	}
	return lay
}

// asV2 rewrites a v3 blob as wire v2: the columns and the CSR folded
// back into one record per node (id | level | per layer: deg | deg×u32),
// header fields and payload byte for byte.
func asV2(v3 []byte) []byte {
	le, lay := binary.LittleEndian, layoutV3(v3)
	out := le.AppendUint32(make([]byte, 0, len(v3)), magicV2)
	out = append(out, v3[4:32]...)
	up := lay.upper
	for i := 0; i < lay.n; i++ {
		out = append(out, v3[lay.ids+8*i:][:8]...)
		out = append(out, v3[lay.levels+4*i:][:4]...)
		beg, end := le.Uint32(v3[lay.off0+4*i:]), le.Uint32(v3[lay.off0+4*i+4:])
		out = le.AppendUint32(out, end-beg)
		out = append(out, v3[lay.nbr0+4*int(beg):lay.nbr0+4*int(end)]...)
		for l := le.Uint32(v3[lay.levels+4*i:]); l > 0; l-- {
			rec := 4 + 4*int(le.Uint32(v3[up:]))
			out = append(out, v3[up:up+rec]...)
			up += rec
		}
	}
	return append(out, v3[lay.payload:]...)
}

// wireVersions returns a v3 blob in every wire version Load accepts.
func wireVersions(v3 []byte) map[string][]byte {
	v2 := asV2(v3)
	return map[string][]byte{"v1": asV1(v2), "v2": v2, "v3": v3}
}

// checkGoldenAnswers compares top-k and iterator streams with what the
// build that wrote the v1 golden files answered, bit for bit.
func checkGoldenAnswers(t *testing.T, what string, ix *Index, want map[string][][]goldenHit) {
	t.Helper()
	qs := goldenFloats(goldenNQ*goldenDim, 2)
	for qi := 0; qi < goldenNQ; qi++ {
		q := qs[qi*goldenDim : (qi+1)*goldenDim]
		got, err := ix.SearchWithFilter(q, goldenK, nil, index.SearchParams{Ef: 32})
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenHits(t, what+" top-k", got, want["topk"][qi])

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
		checkGoldenHits(t, what+" iterator", stream, want["iter"][qi])
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
	for _, quantized := range []bool{false, true} {
		name := "hnsw"
		if quantized {
			name = "hnswsq"
		}
		v1, err := os.ReadFile("testdata/golden_" + name + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		v2, err := os.ReadFile("testdata/golden_" + name + "_v2.bin")
		if err != nil {
			t.Fatal(err)
		}
		v3, err := os.ReadFile("testdata/golden_" + name + "_v3.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(asV1(v2), v1) {
			t.Fatalf("%s: the v2 golden blob is not the v1 one plus magic and padding", name)
		}
		if !bytes.Equal(asV2(v3), v2) {
			t.Fatalf("%s: the v3 golden blob is not the v2 one laid out in columns", name)
		}
		if len(v3) != len(v2)+4 {
			t.Fatalf("%s: v3 golden blob is %d bytes, v2 %d: want 4 more", name, len(v3), len(v2))
		}
		// Every version loads, answers what the v1 writer answered, and
		// saves as v3.
		for version, blob := range map[string][]byte{"v1": v1, "v2": v2, "v3": v3} {
			ix, err := New(goldenParams(), quantized)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Load(blob); err != nil {
				t.Fatalf("%s %s: loading golden blob: %v", name, version, err)
			}
			checkGoldenAnswers(t, name+" "+version, ix, results[name])
			var resaved bytes.Buffer
			if err := ix.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), v3) {
				t.Fatalf("%s: the %s golden blob re-saved differs from the v3 golden one", name, version)
			}
		}

		// Same data and seed must still build the same graph.
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
		if !bytes.Equal(rebuiltBlob.Bytes(), v3) {
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

// littleEndianHost mirrors the condition under which a float payload
// can be viewed in place.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// A v3 blob at an aligned address lends everything but the upper
// layers, so a load allocates two small slabs; a v2 blob lends its
// payload and a load allocates the graph; a v1 blob (payload at
// 37 + 4k) is copy-decoded and allocates about its own size.
func TestLoadAllocsBounded(t *testing.T) {
	p, v3, _ := segmentBlob(t, false)
	v2 := asV2(v3)
	cases := []struct {
		name                     string
		blob                     []byte
		lendsPayload, lendsGraph bool
		pctOfBlob                uint64
	}{
		{"v3", v3, littleEndianHost, littleEndianHost, 5},
		{"v2", v2, littleEndianHost, false, 30},
		{"v1", asV1(v2), false, false, 110},
	}
	for _, tc := range cases {
		ix, err := New(p, false)
		if err != nil {
			t.Fatal(err)
		}
		load := func() {
			if err := ix.Load(tc.blob); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, load); allocs > 8 {
			t.Errorf("%s: Load of a %d × %d-d segment makes %.0f allocations, want <= 8", tc.name, segN, segDim, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
		runtime.ReadMemStats(&after)
		limit := uint64(len(tc.blob)) * tc.pctOfBlob / 100
		if !littleEndianHost {
			limit = uint64(len(tc.blob)) * 110 / 100
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: Load allocates %d bytes for a %d-byte blob, want <= %d", tc.name, got, len(tc.blob), limit)
		}
		if got := borrows(ix, tc.blob); got != tc.lendsPayload {
			t.Errorf("%s: index borrows its payload from the blob = %v, want %v", tc.name, got, tc.lendsPayload)
		}
		if got := borrowsGraph(t, ix, tc.blob); got != tc.lendsGraph {
			t.Errorf("%s: index borrows its graph from the blob = %v, want %v", tc.name, got, tc.lendsGraph)
		}
	}
}

// borrows reports whether a loaded index reads its vector payload out
// of blob, by changing the blob's last byte — the payload's, in both
// store kinds — and watching the store. The test owns blob and puts
// the byte back.
func borrows(ix *Index, blob []byte) bool {
	last := func() byte {
		switch st := ix.store.(type) {
		case *floatStore:
			return byte(math.Float32bits(st.data[len(st.data)-1]) >> 24)
		case *sqStore:
			return st.codes[len(st.codes)-1]
		}
		panic("unknown store")
	}
	before := last()
	blob[len(blob)-1] ^= 0x40
	defer func() { blob[len(blob)-1] ^= 0x40 }()
	return last() != before
}

// borrowsGraph reports whether a loaded index reads ids, levels,
// layer-0 offsets and layer-0 neighbours out of blob, the same way:
// it changes the first byte of each v3 section and watches the arrays.
// The four are lent or copied together; a mix fails the test. A blob
// of another version has no such sections and is never borrowed from.
func borrowsGraph(t *testing.T, ix *Index, blob []byte) bool {
	t.Helper()
	if binary.LittleEndian.Uint32(blob) != magic {
		return false
	}
	lay := layoutV3(blob)
	watched := []struct {
		off  int
		read func() uint32
	}{
		{lay.ids, func() uint32 { return uint32(ix.ids[0]) }},
		{lay.levels, func() uint32 { return ix.levels[0] }},
		{lay.off0 + 4, func() uint32 { return ix.end0[0] + ix.beg0[1] }},
		{lay.nbr0, func() uint32 { return ix.nbr0[0] }},
	}
	lent := 0
	for _, w := range watched {
		before := w.read()
		blob[w.off] ^= 0x40
		if w.read() != before {
			lent++
		}
		blob[w.off] ^= 0x40
	}
	if lent != 0 && lent != len(watched) {
		t.Fatalf("index borrows %d of %d graph sections", lent, len(watched))
	}
	return lent > 0
}

// A blob that lands on an address no number may live at is copy-decoded
// — every view falls back, payload and graph alike — and answers the
// same as the borrowed load of the same bytes.
func TestLoadMisalignedBlobCopies(t *testing.T) {
	p, v3, ds := segmentBlob(t, false)
	for version, blob := range map[string][]byte{"v2": asV2(v3), "v3": v3} {
		backing := make([]byte, len(blob)+1)
		odd := backing[1:]
		copy(odd, blob)

		aligned, err := New(p, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := aligned.Load(blob); err != nil {
			t.Fatal(err)
		}
		shifted, err := New(p, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := shifted.Load(odd); err != nil {
			t.Fatal(err)
		}
		if borrows(shifted, odd) || borrowsGraph(t, shifted, odd) {
			t.Fatalf("%s: index views numbers at an odd address", version)
		}
		if got := borrows(aligned, blob); got != littleEndianHost {
			t.Fatalf("%s: aligned load borrows its payload = %v, want %v", version, got, littleEndianHost)
		}
		if got, want := borrowsGraph(t, aligned, blob), littleEndianHost && version == "v3"; got != want {
			t.Fatalf("%s: aligned load borrows its graph = %v, want %v", version, got, want)
		}
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			q := ds.Queries.Row(qi)
			want, err := aligned.SearchWithFilter(q, 10, nil, index.SearchParams{Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			got, err := shifted.SearchWithFilter(q, 10, nil, index.SearchParams{Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s query %d: copied load answers %v, borrowed load %v", version, qi, got, want)
			}
		}
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
// must track what the arrays really hold — for a built index (grown by
// appends), one decoded from v2 (sized exactly) and one viewing a v3
// blob alike. A borrowing index reports the bytes it reads in the blob
// as its own: it is what keeps them alive, and an index is charged the
// same whether it copied or borrowed. What borrowing changes is that
// those bytes are not held a second time, and that layer 0 has no free
// slots: the v3 handle reports less than the v2 one of the same graph.
func TestMemoryBytesTracksSlabs(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		p, v3, ds := segmentBlob(t, quantized)
		handles := map[string]*Index{}
		for version, blob := range map[string][]byte{"loaded v2": asV2(v3), "loaded v3": v3} {
			ix, err := New(p, quantized)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Load(blob); err != nil {
				t.Fatal(err)
			}
			handles[version] = ix
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
		handles["built"] = built
		for name, ix := range handles {
			held := 8*cap(ix.ids) + 4*(cap(ix.levels)+cap(ix.beg0)+cap(ix.end0)+cap(ix.nbr0)+cap(ix.upperOff)+cap(ix.upper))
			if ix.frozen { // beg0 and end0 are one array of segN+1 offsets
				held = 8*segN + 4*(segN+(segN+1)+len(ix.nbr0)+cap(ix.upperOff)+cap(ix.upper))
			}
			switch st := ix.store.(type) {
			case *floatStore:
				held += 4 * cap(st.data)
			case *sqStore:
				held += cap(st.codes) + 4*(cap(st.sums)+cap(st.sumSqs)) + 4*(len(st.sq.Min)+len(st.sq.Step))
			}
			got := ix.MemoryBytes()
			if diff := math.Abs(float64(got) - float64(held)); diff > 0.05*float64(held) {
				t.Errorf("quantized=%v %s: MemoryBytes %d, arrays hold %d", quantized, name, got, held)
			}
		}
		// One AddWithIDs call sizes its slabs up front, so building
		// must not hold much more than loading the same graph.
		b, l2, l3 := built.MemoryBytes(), handles["loaded v2"].MemoryBytes(), handles["loaded v3"].MemoryBytes()
		if float64(b) > 1.10*float64(l2) {
			t.Errorf("quantized=%v: built index holds %d bytes, loaded %d", quantized, b, l2)
		}
		if l3 >= l2 {
			t.Errorf("quantized=%v: v3 handle reports %d bytes, v2 handle %d", quantized, l3, l2)
		}
	}
}

// --- corrupt blobs -------------------------------------------------------------

// smallBlob is a graph small enough to attack byte by byte, with
// enough nodes to have upper layers.
func smallBlob(t testing.TB, quantized bool) (index.BuildParams, []byte) {
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
	type field struct {
		name      string
		off, size int
	}
	// Header layouts: magic u32 | kind u8 | [v2, v3: pad 3×0] | dim u32 |
	// entry i64 | maxLevel u32 | nNodes u64.
	padded := []field{{"magic", 0, 4}, {"kind", 4, 1}, {"pad", 5, 3}, {"dim", 8, 4}, {"entry", 12, 8}, {"maxLevel", 20, 4}, {"nNodes", 24, 8}}
	versions := []struct {
		name   string
		fields []field
	}{
		{"v1", []field{{"magic", 0, 4}, {"kind", 4, 1}, {"dim", 5, 4}, {"entry", 9, 8}, {"maxLevel", 17, 4}, {"nNodes", 21, 8}}},
		{"v2", padded},
		{"v3", padded},
	}
	for _, quantized := range []bool{false, true} {
		for _, ver := range versions {
			p, v3 := smallBlob(t, quantized)
			blob := wireVersions(v3)[ver.name]
			what := func(s string) string { return fmt.Sprintf("quantized=%v %s: %s", quantized, ver.name, s) }
			if !loadAndProbe(t, what("intact blob"), p, quantized, blob) {
				t.Fatal(what("intact blob rejected"))
			}

			// Truncation at every length, which covers every field boundary.
			for n := 0; n < len(blob); n++ {
				if loadAndProbe(t, what("truncated"), p, quantized, blob[:n]) {
					t.Fatalf("%s: blob truncated to %d of %d bytes loaded", what("truncated"), n, len(blob))
				}
			}
			if loadAndProbe(t, what("trailing byte"), p, quantized, append(bytes.Clone(blob), 0)) {
				t.Fatal(what("blob with a trailing byte loaded"))
			}

			// Each header field set to hostile values and to every one-bit
			// flip of itself. For the padding that is every non-zero value
			// tried; a magic one off is another version's, under which the
			// fields that follow no longer line up. The v3 section fields
			// get the same values: most describe no graph at all, a few
			// describe a different one, and whatever loads must be safe to
			// search — the ones that must not load are named below.
			fields := ver.fields
			lay := layoutV3(v3)
			if ver.name == "v3" {
				for _, i := range []int{0, 1, lay.n / 2, lay.n - 1} {
					fields = append(fields,
						field{fmt.Sprintf("id[%d]", i), lay.ids + 8*i, 8},
						field{fmt.Sprintf("level[%d]", i), lay.levels + 4*i, 4},
						field{fmt.Sprintf("off0[%d]", i), lay.off0 + 4*i, 4},
						field{fmt.Sprintf("nbr0[%d]", i), lay.nbr0 + 4*i, 4})
				}
				fields = append(fields, field{"off0[n]", lay.off0 + 4*lay.n, 4},
					field{"upper deg", lay.upper, 4}, field{"upper nbr", lay.upper + 4, 4})
			}
			for _, f := range fields {
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
					loaded := loadAndProbe(t, what(f.name), p, quantized, mutated)
					// Of the header only the entry point can change and still
					// describe a valid graph (another node of the top level).
					if loaded && f.off < 32 && f.name != "entry" {
						t.Fatalf("%s = %#x (was %#x) loaded", what(f.name), v, orig)
					}
				}
			}

			if ver.name == "v3" {
				u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(blob[off:]) }
				level0, upperNode := -1, -1 // a node without and one with upper layers
				for i := 0; i < lay.n; i++ {
					if u32(lay.levels+4*i) == 0 && level0 < 0 {
						level0 = i
					}
					if u32(lay.levels+4*i) > 0 && upperNode < 0 {
						upperNode = i
					}
				}
				hostile := []struct {
					what string
					off  int
					val  uint32
				}{
					{"level > maxLevel", lay.levels + 4*level0, uint32(lay.top) + 1},
					{"level raised without records", lay.levels + 4*level0, 1},
					{"level lowered under its records", lay.levels + 4*upperNode, 0},
					{"off0[0] != 0", lay.off0, 1},
					{"off0 non-monotone", lay.off0 + 4*3, u32(lay.off0+4*4) + 1},
					{"layer-0 degree > 2M", lay.off0 + 4*1, u32(lay.off0) + 2*uint32(p.M) + 1},
					{"off0[n] > neighbour count", lay.off0 + 4*lay.n, u32(lay.off0+4*lay.n) + 1},
					{"off0[n] < neighbour count", lay.off0 + 4*lay.n, u32(lay.off0+4*lay.n) - 1},
					{"off0[n] absurd", lay.off0 + 4*lay.n, math.MaxUint32},
					{"layer-0 neighbour >= n", lay.nbr0 + 4*7, uint32(lay.n)},
					{"upper degree > M", lay.upper, uint32(p.M) + 1},
					{"upper neighbour >= n", lay.upper + 4, uint32(lay.n)},
					{"upper neighbour below its layer", lay.upper + 4, uint32(level0)},
				}
				for _, h := range hostile {
					mutated := bytes.Clone(blob)
					binary.LittleEndian.PutUint32(mutated[h.off:], h.val)
					if loadAndProbe(t, what(h.what), p, quantized, mutated) {
						t.Fatalf("%s loaded", what(h.what))
					}
				}
			}

			// A header-and-a-byte blob claiming 2^31 nodes must be refused
			// before anything is sized from the claim.
			nNodes := ver.fields[len(ver.fields)-1]
			huge := bytes.Clone(blob[:nNodes.off+nNodes.size+1])
			binary.LittleEndian.PutUint64(huge[nNodes.off:], 1<<31)
			if loadAndProbe(t, what("huge node count"), p, quantized, huge) {
				t.Fatalf("%s: %d-byte blob claiming 2^31 nodes loaded", what("huge node count"), len(huge))
			}

			// Seeded single-byte damage anywhere in the body: whatever is
			// accepted must be safe to search.
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 4000; i++ {
				mutated := bytes.Clone(blob)
				mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
				loadAndProbe(t, what("bit flip"), p, quantized, mutated)
			}
		}
	}
}

// Loading must leave the index growable, and growing must leave the
// blob alone: what a load borrowed has no spare capacity and layer 0 of
// a v3 load no free slots, so the first add thaws the index — moves
// everything it will write to into slabs of its own. The thawed index
// is the index a v2 load of the same graph decodes: the same adds give
// the same graph and the same answers.
func TestAddAfterLoad(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		p, v3 := smallBlob(t, quantized)
		const extraN = 100
		extra := goldenFloats(extraN*p.Dim, 8)
		grown := map[string]*Index{}
		for version, blob := range wireVersions(v3) {
			sum := crc32.ChecksumIEEE(blob)
			ix, err := New(p, quantized)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Load(blob); err != nil {
				t.Fatal(err)
			}
			lendsPayload := littleEndianHost && version != "v1" || quantized
			if got := borrows(ix, blob); got != lendsPayload {
				t.Fatalf("quantized=%v %s: index borrows its payload = %v, want %v", quantized, version, got, lendsPayload)
			}
			if got, want := borrowsGraph(t, ix, blob), littleEndianHost && version == "v3"; got != want {
				t.Fatalf("quantized=%v %s: index borrows its graph = %v, want %v", quantized, version, got, want)
			}
			before := ix.Count()
			for i := 0; i < extraN; i++ {
				// One call per vector: every add must find the slabs its own.
				if err := ix.AddWithIDs(extra[i*p.Dim:(i+1)*p.Dim], []int64{int64(before + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if got := crc32.ChecksumIEEE(blob); got != sum {
				t.Fatalf("quantized=%v %s: %d adds after Load changed the blob", quantized, version, extraN)
			}
			if borrows(ix, blob) || borrowsGraph(t, ix, blob) {
				t.Fatalf("quantized=%v %s: index still reads from the blob after growing", quantized, version)
			}
			grown[version] = ix
			if quantized {
				continue // SQ8 cannot promise an exact self-match
			}
			for i := 0; i < extraN; i++ {
				res, err := ix.SearchWithFilter(extra[i*p.Dim:(i+1)*p.Dim], 1, nil, index.SearchParams{Ef: 32})
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != 1 || res[0].ID != int64(before+i) {
					t.Fatalf("vector added after Load not found: got %+v, want id %d", res, before+i)
				}
			}
		}
		var want bytes.Buffer
		if err := grown["v2"].Save(&want); err != nil {
			t.Fatal(err)
		}
		for _, version := range []string{"v1", "v3"} {
			var got bytes.Buffer
			if err := grown[version].Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("quantized=%v: the same adds after a %s load and after a v2 load built different indexes", quantized, version)
			}
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
