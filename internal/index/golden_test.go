package index_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"blendhouse/internal/index"
	"blendhouse/internal/index/ivf"
	"blendhouse/internal/vec"
)

// --- golden blobs -----------------------------------------------------------
//
// testdata/golden_<type>.bin is the blob Save wrote, at the commit
// before HNSW wire v3, for each index type whose wire format has had a
// single version so far, built from goldenFloats and goldenParams below
// (the data and parameters of the HNSW golden blobs, which stay in
// hnsw/testdata, one per wire version, with the version-to-version
// checks; the newest is opened here too, through the registry);
// testdata/golden_results.json is what that build answered. They stand
// for every store written up to now: whatever these formats become,
// Load must keep opening these bytes and answering the same. Golden
// files are append-only — a format change adds golden_<type>_v2.bin and
// leaves these alone.

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
	return index.BuildParams{Dim: goldenDim, Metric: vec.L2, Seed: 3, Nlist: 8, PQM: 4, M: 6, EfConstruction: 40}.WithDefaults()
}

func goldenSearchParams() index.SearchParams {
	return index.SearchParams{Ef: 32, Nprobe: 4, RefineFactor: 4}
}

// goldenProvider wires the exact-vector refine stage the engine gives
// quantized IVF variants, over the golden rows.
func goldenProvider(ix index.Index, rows []float32) {
	if iv, ok := ix.(*ivf.Index); ok {
		iv.SetRawProvider(func(id int64, out []float32) bool {
			if id < 0 || id >= goldenN {
				return false
			}
			copy(out, rows[id*goldenDim:(id+1)*goldenDim])
			return true
		})
	}
}

type goldenHit struct {
	ID   int64  `json:"id"`
	Dist uint32 `json:"dist_bits"`
}

func goldenBlobName(typ index.Type) string {
	name := strings.ToLower(string(typ))
	if typ == index.HNSW || typ == index.HNSWSQ {
		return "hnsw/testdata/golden_" + name + "_v3.bin"
	}
	return "testdata/golden_" + name + ".bin"
}

func TestGoldenBlobs(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var results map[string][][]goldenHit
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	rows := goldenFloats(goldenN*goldenDim, 1)
	qs := goldenFloats(goldenNQ*goldenDim, 2)
	for _, typ := range allTypes() {
		typ := typ
		t.Run(string(typ), func(t *testing.T) {
			blob, err := os.ReadFile(goldenBlobName(typ))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := index.New(typ, goldenParams())
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Load(blob); err != nil {
				t.Fatalf("loading golden blob: %v", err)
			}
			goldenProvider(ix, rows)
			if ix.Count() != goldenN {
				t.Fatalf("golden index holds %d vectors, want %d", ix.Count(), goldenN)
			}
			want := results[string(typ)]
			if len(want) != goldenNQ {
				t.Fatalf("golden results hold %d queries, want %d", len(want), goldenNQ)
			}
			for qi := 0; qi < goldenNQ; qi++ {
				got, err := ix.SearchWithFilter(qs[qi*goldenDim:(qi+1)*goldenDim], goldenK, nil, goldenSearchParams())
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want[qi]) {
					t.Fatalf("query %d: %d hits, golden has %d", qi, len(got), len(want[qi]))
				}
				// Distances are sums of float products, which only the
				// architecture the files were written on is sure to
				// round the same way.
				for i, w := range want[qi] {
					if got[i].ID != w.ID || (runtime.GOARCH == "amd64" && math.Float32bits(got[i].Dist) != w.Dist) {
						t.Fatalf("query %d hit %d: got id %d dist %v, golden id %d dist %v",
							qi, i, got[i].ID, got[i].Dist, w.ID, math.Float32frombits(w.Dist))
					}
				}
			}
			var resaved bytes.Buffer
			if err := ix.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), blob) {
				t.Fatal("the golden blob re-saved differs from itself")
			}
		})
	}
}
