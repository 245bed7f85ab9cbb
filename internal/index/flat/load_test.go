package flat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

// littleEndianHost reports that the wire's numbers can be viewed in
// place; elsewhere every Load copies.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// savedBlob saves a flat index of n random dim-d rows with ids 0..n-1.
func savedBlob(tb testing.TB, n, dim int, seed int64) []byte {
	tb.Helper()
	ix, err := New(index.BuildParams{Dim: dim, Metric: vec.L2})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(data, ids); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// shifted returns a copy of blob that starts one byte past an aligned
// address, so no number in it can be viewed and Load copies.
func shifted(blob []byte) []byte {
	backing := make([]byte, len(blob)+1)
	copy(backing[1:], blob)
	return backing[1:]
}

// borrows reports whether ix reads its ids and its vectors out of blob:
// it flips the first id's low byte and the last float's high byte and
// watches both arrays. The two are lent or copied together; a mix fails
// the test.
func borrows(t *testing.T, ix *Index, blob []byte) bool {
	t.Helper()
	if len(ix.ids) == 0 {
		return false
	}
	id0, last := ix.ids[0], math.Float32bits(ix.data[len(ix.data)-1])
	blob[16] ^= 0x01
	blob[len(blob)-1] ^= 0x40
	ids, data := ix.ids[0] != id0, math.Float32bits(ix.data[len(ix.data)-1]) != last
	blob[16] ^= 0x01
	blob[len(blob)-1] ^= 0x40
	if ids != data {
		t.Fatalf("ids borrowed %t, vectors borrowed %t", ids, data)
	}
	return ids
}

// loadAndProbe loads blob into a flat index of dim and, when it loads,
// runs a top-k search, a range search and the iterator to its end. A
// failure must wrap index.ErrCorrupt and nothing may panic.
func loadAndProbe(t *testing.T, what string, dim int, blob []byte) *Index {
	t.Helper()
	ix, err := New(index.BuildParams{Dim: dim, Metric: vec.L2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(blob); err != nil {
		if !errors.Is(err, index.ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap index.ErrCorrupt", what, err)
		}
		return nil
	}
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(i) / float32(dim)
	}
	if _, err := ix.SearchWithFilter(q, 5, nil, index.SearchParams{}); err != nil {
		t.Fatalf("%s: search: %v", what, err)
	}
	if _, err := ix.SearchWithRange(q, 0.5, nil, index.SearchParams{}); err != nil {
		t.Fatalf("%s: range search: %v", what, err)
	}
	it, err := ix.SearchIterator(q, index.SearchParams{})
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
			return ix
		}
	}
}

// sameRows fails unless a and b hold bit-identical ids and vectors.
func sameRows(t *testing.T, what string, a, b *Index) {
	t.Helper()
	if !slices.Equal(a.ids, b.ids) || len(a.data) != len(b.data) {
		t.Fatalf("%s: ids differ", what)
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			t.Fatalf("%s: float %d is %#x, %#x", what, i, math.Float32bits(a.data[i]), math.Float32bits(b.data[i]))
		}
	}
}

// FuzzLoad: any blob either fails with index.ErrCorrupt or loads into an
// index whose top-k search, range search and iterator all run — never a
// panic. Every input is loaded twice, as given (the view path) and one
// byte past an aligned address (the copy path); the two must agree. The
// seeds are the golden flat blob (8-d) and a small saved index.
func FuzzLoad(f *testing.F) {
	golden, err := os.ReadFile("../testdata/golden_flat.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(savedBlob(f, 5, 8, 1))
	f.Fuzz(func(t *testing.T, blob []byte) {
		viewed := loadAndProbe(t, "blob", 8, blob)
		copied := loadAndProbe(t, "shifted blob", 8, shifted(blob))
		if (viewed == nil) != (copied == nil) {
			t.Fatalf("the blob loads %t, shifted by one byte %t", viewed != nil, copied != nil)
		}
		if viewed != nil {
			sameRows(t, "view and copy", viewed, copied)
		}
	})
}

// TestLoadViewMatchesCopy: the view path and the copy path read the same
// ids and vectors, bit for bit; only an aligned blob is borrowed from.
func TestLoadViewMatchesCopy(t *testing.T) {
	golden, err := os.ReadFile("../testdata/golden_flat.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dim  int
		blob []byte
	}{
		{"golden 300 × 8", 8, golden},
		{"1 × 1", 1, savedBlob(t, 1, 1, 2)},
		{"97 × 3", 3, savedBlob(t, 97, 3, 3)},
		{"750 × 128", 128, savedBlob(t, 750, 128, 4)},
	} {
		odd := shifted(tc.blob)
		viewed := loadAndProbe(t, tc.name, tc.dim, tc.blob)
		copied := loadAndProbe(t, tc.name+" shifted", tc.dim, odd)
		if viewed == nil || copied == nil {
			t.Fatalf("%s: a saved blob does not load", tc.name)
		}
		sameRows(t, tc.name, viewed, copied)
		if got := borrows(t, viewed, tc.blob); got != littleEndianHost {
			t.Errorf("%s: aligned load borrows = %t, want %t", tc.name, got, littleEndianHost)
		}
		if borrows(t, copied, odd) {
			t.Errorf("%s: load views numbers at an odd address", tc.name)
		}
	}
}

// TestAddAfterLoadLeavesBlob: the loaded arrays have cap == len, so a
// later AddWithIDs reallocates instead of writing past them into the
// blob, and the blob's bytes never change.
func TestAddAfterLoadLeavesBlob(t *testing.T) {
	blob := savedBlob(t, 40, 4, 5)
	// A blob with spare capacity behind it: an append into the view
	// would land there.
	roomy := append(make([]byte, 0, len(blob)+1024), blob...)
	want := slices.Clone(roomy[:cap(roomy)])
	for _, b := range [][]byte{roomy, shifted(blob)} {
		ix := loadAndProbe(t, "blob", 4, b)
		if ix == nil {
			t.Fatal("a saved blob does not load")
		}
		if cap(ix.ids) != len(ix.ids) || cap(ix.data) != len(ix.data) {
			t.Fatalf("loaded arrays have cap %d/%d for len %d/%d", cap(ix.ids), cap(ix.data), len(ix.ids), len(ix.data))
		}
		if err := ix.AddWithIDs([]float32{9, 9, 9, 9}, []int64{40}); err != nil {
			t.Fatal(err)
		}
		if ix.Count() != 41 || ix.Vector(40)[0] != 9 {
			t.Fatalf("add after load: %d rows", ix.Count())
		}
	}
	if !bytes.Equal(roomy[:cap(roomy)], want) {
		t.Fatal("AddWithIDs after Load wrote into the blob")
	}
}

// TestLoadAllocsBounded: opening a 750 × 128-d segment allocates no copy
// of it — under 1 KiB for a 390 KB blob, where a copying Load allocates
// the blob's size again.
func TestLoadAllocsBounded(t *testing.T) {
	if !littleEndianHost {
		t.Skip("a big-endian host copies every load")
	}
	blob := savedBlob(t, 750, 128, 6)
	ix, err := New(index.BuildParams{Dim: 128, Metric: vec.L2})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := ix.Load(blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1024 {
		t.Fatalf("Load of a %d-byte blob allocates %d bytes, want < 1 KiB", len(blob), got)
	}
	if allocs := testing.AllocsPerRun(runs, func() { ix.Load(blob) }); allocs > 4 {
		t.Fatalf("Load makes %.0f allocations, want <= 4", allocs)
	}
}
