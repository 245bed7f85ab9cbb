package ivf

import (
	"errors"
	"os"
	"testing"

	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

// The golden blobs (internal/index/testdata) were saved from 300 rows
// of 8-d vectors with these parameters, one per variant.
var goldenBlobs = map[Variant]string{
	VariantFlat: "../testdata/golden_ivfflat.bin",
	VariantPQ:   "../testdata/golden_ivfpq.bin",
	VariantPQFS: "../testdata/golden_ivfpqfs.bin",
}

func goldenParams() index.BuildParams {
	return index.BuildParams{Dim: 8, Metric: vec.L2, Seed: 3, Nlist: 8, PQM: 4}.WithDefaults()
}

// loadAndProbe loads blob into an empty index of variant v: either Load
// fails with an error wrapping index.ErrCorrupt, or top-k search, range
// search and the iterator the engine opens all run to the end — never
// a panic. It reports whether the blob loaded.
func loadAndProbe(t *testing.T, what string, v Variant, blob []byte) bool {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", what, r)
		}
	}()
	p := goldenParams()
	ix, err := New(p, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(blob); err != nil {
		if !errors.Is(err, index.ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap index.ErrCorrupt", what, err)
		}
		return false
	}
	// The engine's refine stage, over rows that exist for ids 0..299.
	ix.SetRawProvider(func(id int64, out []float32) bool {
		for i := range out {
			out[i] = float32(id%7) / 7
		}
		return id >= 0 && id < 300
	})
	q := []float32{0.1, 0.9, 0.3, 0.5, 0.2, 0.8, 0.4, 0.6}
	sp := index.SearchParams{Nprobe: 4, RefineFactor: 4}
	if _, err := ix.SearchWithFilter(q, 5, nil, sp); err != nil {
		t.Fatalf("%s: search: %v", what, err)
	}
	if _, err := ix.SearchWithRange(q, 0.5, nil, sp); err != nil {
		t.Fatalf("%s: range search: %v", what, err)
	}
	it, err := index.OpenIterator(ix, q, 5, sp)
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

// FuzzLoad: any blob, loaded into any variant, either fails with
// index.ErrCorrupt or loads into an index whose searches and iterator
// run. The seeds are the three golden blobs, each in its own variant.
func FuzzLoad(f *testing.F) {
	for v, name := range goldenBlobs {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(v), blob)
	}
	f.Fuzz(func(t *testing.T, v uint8, blob []byte) {
		loadAndProbe(t, "fuzzed blob", Variant(v%3), blob)
	})
}

// TestGoldenBlobsProbe: every seed loads into its own variant, so the
// fuzzer mutates blobs that reach the searches instead of ones its
// parameters reject at the header.
func TestGoldenBlobsProbe(t *testing.T) {
	for v, name := range goldenBlobs {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !loadAndProbe(t, name, v, blob) {
			t.Fatalf("%s does not load into variant %d", name, v)
		}
	}
	// Relabelled (header byte 4 is the variant): IVFPQ takes the 4-bit
	// codes of an IVFPQFS blob, but IVFPQFS, trained 4-bit only, must
	// reject the 8-bit codebook of an IVFPQ blob.
	for _, c := range []struct{ from, to Variant }{{VariantPQFS, VariantPQ}, {VariantPQ, VariantPQFS}} {
		blob, err := os.ReadFile(goldenBlobs[c.from])
		if err != nil {
			t.Fatal(err)
		}
		blob[4] = uint8(c.to)
		if got, want := loadAndProbe(t, "relabelled "+goldenBlobs[c.from], c.to, blob), c.to == VariantPQ; got != want {
			t.Fatalf("%s relabelled as variant %d: loaded = %v, want %v", goldenBlobs[c.from], c.to, got, want)
		}
	}
}
