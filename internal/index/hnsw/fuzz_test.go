package hnsw

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoad: any blob either fails to load with an error wrapping
// index.ErrCorrupt or loads into an index whose top-k search, range
// search and iterator all run — never a panic. golden picks the
// parameters the blob was built with: the golden files' or
// smallBlob's. The seeds are smallBlob in every wire version, float
// and SQ, and every golden blob in testdata.
func FuzzLoad(f *testing.F) {
	for _, quantized := range []bool{false, true} {
		_, v3 := smallBlob(f, quantized)
		for _, blob := range wireVersions(v3) {
			f.Add(quantized, false, blob)
		}
	}
	goldens, err := filepath.Glob("testdata/golden_hnsw*.bin")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden blobs: %v", err)
	}
	for _, name := range goldens {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.HasPrefix(filepath.Base(name), "golden_hnswsq"), true, blob)
	}
	small, _ := smallBlob(f, false)
	f.Fuzz(func(t *testing.T, quantized, golden bool, blob []byte) {
		p := small
		if golden {
			p = goldenParams()
		}
		loadAndProbe(t, "fuzzed blob", p, quantized, blob)
	})
}
