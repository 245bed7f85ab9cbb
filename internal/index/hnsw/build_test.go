package hnsw

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/quant"
	"blendhouse/internal/vec"
)

// --- build determinism -------------------------------------------------------
//
// testdata/golden_build_sha256.json holds the SHA-256 of what Save
// writes after building buildN goldenFloats vectors of buildDim
// dimensions (M 16, ef_construction 200) for every metric and both
// stores, as written by the build that scored one pair of nodes per
// kernel call. Batched scoring computes the same distances in another
// grouping and order; a graph that differs in one byte means that some
// accept test saw a different number, or ran in a different order.
// HNSWSQ also builds the same data shifted farOffset from zero, where
// not every code survives a decode and encode, so IP and cosine anchor
// a node decoded and encoded again, as the per-pair build did.

const (
	buildN    = 800
	buildDim  = 128
	farOffset = 1e5
)

var buildMetrics = []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine}

func buildParams(m vec.Metric) index.BuildParams {
	return index.BuildParams{Dim: buildDim, Metric: m, M: 16, EfConstruction: 200, Seed: 1}.WithDefaults()
}

// buildHash builds the determinism case for one metric and store, its
// data shifted by offset, and returns its key in the golden file and
// the hex SHA-256 of its blob.
func buildHash(tb testing.TB, m vec.Metric, quantized bool, offset float32) (key, sum string) {
	tb.Helper()
	ix, err := New(buildParams(m), quantized)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int64, buildN)
	for i := range ids {
		ids[i] = int64(i)
	}
	data := goldenFloats(buildN*buildDim, 5)
	for i := range data {
		data[i] += offset
	}
	if err := ix.AddWithIDs(data, ids); err != nil {
		tb.Fatal(err)
	}
	var blob bytes.Buffer
	if err := ix.Save(&blob); err != nil {
		tb.Fatal(err)
	}
	h := sha256.Sum256(blob.Bytes())
	key = string(ix.Type()) + "/" + m.String()
	if offset != 0 {
		key += fmt.Sprintf("%+g", offset)
	}
	return key, hex.EncodeToString(h[:])
}

// fmaProbe: −(1+2⁻¹¹) + (1+2⁻¹²)·(1+2⁻¹²) is 0 with the product rounded
// first and 2⁻²⁴ fused. Variables, so the compiler cannot fold them.
var fmaProbe = [2][]float32{
	{-(1 + 1.0/2048), 0, 0, 0, 1 + 1.0/4096, 0, 0, 0},
	{1, 0, 0, 0, 1 + 1.0/4096, 0, 0, 0},
}

// buildGolden reads a golden file of build hashes, or skips where its
// hashes do not hold. Graph choices hang on float comparisons: the
// hashes are pinned to the architecture they were written on, with
// rounded multiply-adds (GOAMD64=v1; Go 1.24 fuses none at any level,
// but may one day).
func buildGolden(t *testing.T, name string) map[string]string {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden build hashes are amd64 bytes")
	}
	if vec.Dot(fmaProbe[0], fmaProbe[1]) != 0 {
		t.Skip("the scalar kernels were compiled with fused multiply-adds")
	}
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestBuildBytesUnchanged(t *testing.T) {
	want := buildGolden(t, "testdata/golden_build_sha256.json")
	cases := []struct {
		quantized bool
		offset    float32
	}{{false, 0}, {true, 0}, {true, farOffset}}
	for _, m := range buildMetrics {
		for _, c := range cases {
			key, got := buildHash(t, m, c.quantized, c.offset)
			if want[key] == "" {
				t.Fatalf("%s: no golden hash", key)
			}
			if got != want[key] {
				t.Errorf("%s: a build of the golden data saves different bytes (sha256 %s, golden %s)", key, got, want[key])
			}
		}
	}
}

// --- the batched build ---------------------------------------------------------
//
// testdata/golden_build_batched_sha256.json holds, for every metric and
// both stores, the SHA-256 of what Save writes after adding n
// batchedDim-d goldenFloats rows in one call (M 8, ef_construction 64,
// the quantizer trained on all n rows first), under the key
// "<type>/<metric>/<n>". The 2 000-row hashes were written by the
// batched builder: a call of batchMinRows rows or more links its nodes
// in batches. The 3 000-row hashes were written by the builder that
// linked every node alone, before batches existed.

const batchedDim = 32

// batchedBuild adds n rows to a fresh index in calls of at most per
// rows and returns its golden key and the hex SHA-256 of its blob.
func batchedBuild(tb testing.TB, m vec.Metric, quantized bool, n, per int) (key, sum string) {
	tb.Helper()
	ix, err := New(index.BuildParams{Dim: batchedDim, Metric: m, M: 8, EfConstruction: 64, Seed: 3}.WithDefaults(), quantized)
	if err != nil {
		tb.Fatal(err)
	}
	data := goldenFloats(n*batchedDim, 6)
	if err := ix.Train(data); err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < n; lo += per {
		ids := make([]int64, min(per, n-lo))
		for i := range ids {
			ids[i] = int64(lo + i)
		}
		if err := ix.AddWithIDs(data[lo*batchedDim:(lo+len(ids))*batchedDim], ids); err != nil {
			tb.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if err := ix.Save(&blob); err != nil {
		tb.Fatal(err)
	}
	h := sha256.Sum256(blob.Bytes())
	return fmt.Sprintf("%s/%v/%d", ix.Type(), m, n), hex.EncodeToString(h[:])
}

// A batched build saves the same bytes at any worker count: batch
// boundaries depend on node counts only, and no worker reads what
// another writes within a phase.
func TestBuildSameBytesAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	got := map[string]string{}
	for _, m := range buildMetrics {
		for _, quantized := range []bool{false, true} {
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				key, sum := batchedBuild(t, m, quantized, 2000, 2000)
				if procs == 1 {
					got[key] = sum
				} else if sum != got[key] {
					t.Errorf("%s: GOMAXPROCS %d saves sha256 %s, GOMAXPROCS 1 %s", key, procs, sum, got[key])
				}
			}
		}
	}
	want := buildGolden(t, "testdata/golden_build_batched_sha256.json")
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: a batched build saves sha256 %s, golden %q", key, sum, want[key])
		}
	}
}

// Calls below batchMinRows link one node at a time: three calls of
// 1 000 rows save what one call of the same 3 000 rows saved before
// batches existed.
func TestBuildSmallCallsMatchUnbatchedBuilder(t *testing.T) {
	if raceEnabled {
		t.Skip("one node at a time starts no goroutine: nothing to race, and 18 000 inserts are slow under -race")
	}
	want := buildGolden(t, "testdata/golden_build_batched_sha256.json")
	for _, m := range buildMetrics {
		for _, quantized := range []bool{false, true} {
			key, sum := batchedBuild(t, m, quantized, 3000, 1000)
			if want[key] == "" {
				t.Fatalf("%s: no golden hash", key)
			}
			if sum != want[key] {
				t.Errorf("%s: three 1 000-row calls save sha256 %s, the unbatched builder %s", key, sum, want[key])
			}
		}
	}
}

// A batched build finds about what one node at a time finds, on the
// standing benchmark's segment shape (3 000 × 128-d clustered rows, M 8,
// ef_construction 80): recall@10 over 200 queries against the same
// rows added in 1 000-row calls, and the saved size.
func TestBatchedBuildRecall(t *testing.T) {
	const n, dim = 3000, 128
	ds := dataset.Generate(dataset.Spec{N: n, Dim: dim, Queries: 200, Clusters: 8, Seed: 17})
	truth := ds.GroundTruth(vec.L2, 10, nil)
	build := func(per int) (*Index, int) {
		ix, err := New(index.BuildParams{Dim: dim, Metric: vec.L2, M: 8, EfConstruction: 80, Seed: 9}.WithDefaults(), false)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += per {
			ids := make([]int64, per)
			for i := range ids {
				ids[i] = int64(lo + i)
			}
			if err := ix.AddWithIDs(ds.Vectors.Data[lo*dim:(lo+per)*dim], ids); err != nil {
				t.Fatal(err)
			}
		}
		var blob bytes.Buffer
		if err := ix.Save(&blob); err != nil {
			t.Fatal(err)
		}
		return ix, blob.Len()
	}
	recall := func(ix *Index, ef int) float64 {
		got := make([][]int64, len(truth))
		for qi := range got {
			res, err := ix.SearchWithFilter(ds.Queries.Row(qi), 10, nil, index.SearchParams{Ef: ef})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res {
				got[qi] = append(got[qi], c.ID)
			}
		}
		return dataset.Recall(truth, got)
	}
	batched, batchedSize := build(n)
	single, singleSize := build(1000)
	for _, ef := range []int{16, 64} {
		rb, rs := recall(batched, ef), recall(single, ef)
		t.Logf("ef %d: recall@10 %.4f batched, %.4f one node at a time", ef, rb, rs)
		if math.Abs(rb-rs) > 0.01 {
			t.Errorf("ef %d: recall@10 %.4f batched, %.4f one node at a time, want within 0.01", ef, rb, rs)
		}
	}
	t.Logf("blob %d bytes batched, %d one node at a time", batchedSize, singleSize)
	if d := math.Abs(float64(batchedSize - singleSize)); d > 0.01*float64(singleSize) {
		t.Errorf("blob %d bytes batched, %d one node at a time, want within 1 %%", batchedSize, singleSize)
	}
}

// --- the heuristics against the per-pair loop --------------------------------

// pairDist is the distance the per-pair build scored: a fresh anchor at
// node i for every pair; for SQ IP and cosine, i's code decoded and
// encoded again as a query.
func pairDist(ix *Index, i, j int) float32 {
	switch st := ix.store.(type) {
	case *floatStore:
		return vec.Distance(st.metric, st.data[i*st.dim:(i+1)*st.dim], st.data[j*st.dim:(j+1)*st.dim])
	case *sqStore:
		if st.metric == vec.L2 {
			return st.sq.CodeL2Squared(st.code(i), st.code(j))
		}
		dec := make([]float32, st.dim)
		qc := make([]byte, st.dim)
		st.sq.Decode(st.code(i), dec)
		st.sq.Encode(dec, qc)
		sum, sumSq := quant.CodeStats(qc)
		var sym quant.SymQuery
		st.sq.SetSymCode(&sym, qc, sum, sumSq)
		if st.metric == vec.InnerProduct {
			return -sym.DotDecoded(st.code(j), st.sums[j])
		}
		return sym.CosineDecoded(st.code(j), st.sums[j], st.sumSqs[j])
	}
	panic("unknown store")
}

// selectPerPair is the heuristic as the per-pair build ran it, for
// insertion and pruning alike: each candidate against the kept set one
// pair at a time, then a backfill that looks kept nodes up in a map.
func selectPerPair(ix *Index, cands []scored, m int) []scored {
	if len(cands) <= m {
		return cands
	}
	selected := make([]scored, 0, m)
	for _, c := range cands {
		ok := true
		for _, s := range selected {
			if pairDist(ix, c.node, s.node) < c.dist {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, c)
			if len(selected) == m {
				break
			}
		}
	}
	if len(selected) < m {
		have := map[int]bool{}
		for _, s := range selected {
			have[s.node] = true
		}
		for _, c := range cands {
			if !have[c.node] {
				selected = append(selected, c)
				if len(selected) == m {
					break
				}
			}
		}
	}
	return selected
}

// The batched heuristic — four kept neighbours per call — keeps exactly
// what the per-pair loop keeps, in the same order, on random candidate
// lists over clustered data, for every metric and store. HNSWSQ runs
// two quantizers: as trained, where a node anchors as its stored code;
// and trained on data far from zero, where not every code survives a
// decode and encode, so a node anchors decoded and encoded again.
// The last rows repeat the first ones, and half the lists hold the
// base's twin: once kept, it ties every later candidate's distance
// exactly, so a test that should be strict is checked where it matters.
func TestHeuristicsMatchPerPairLoop(t *testing.T) {
	const n, dim, twins = 500, 24, 20
	ds := dataset.Small(n, dim, 23)
	for i := 0; i < twins; i++ {
		ds.Vectors.SetRow(n-1-i, ds.Vectors.Row(i))
	}
	far := slices.Clone(ds.Vectors.Data)
	for i := range far {
		far[i] += farOffset
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(29))
	for _, m := range buildMetrics {
		for _, store := range []string{"HNSW", "HNSWSQ", "HNSWSQ far from zero"} {
			ix, err := New(index.BuildParams{Dim: dim, Metric: m, M: 8, EfConstruction: 40, Seed: 2}.WithDefaults(), store != "HNSW")
			if err != nil {
				t.Fatal(err)
			}
			data := ds.Vectors.Data
			if store == "HNSWSQ far from zero" {
				data = far
			}
			if err := ix.AddWithIDs(data, ids); err != nil {
				t.Fatal(err)
			}
			if st, ok := ix.store.(*sqStore); ok {
				if want := store == "HNSWSQ"; st.exact != want {
					t.Fatalf("%s: exact %v, want %v", store, st.exact, want)
				}
			}
			for round := 0; round < 300; round++ {
				base := rng.Intn(n)
				cands := make([]scored, 0, 49)
				if round%2 == 0 {
					base = rng.Intn(twins)
					cands = append(cands, scored{n - 1 - base, pairDist(ix, base, n-1-base)})
				}
				for _, c := range rng.Perm(n)[:1+rng.Intn(48)] {
					if c != base && c != n-1-base {
						cands = append(cands, scored{c, pairDist(ix, base, c)})
					}
				}
				sortScored(cands)
				keep := 1 + rng.Intn(len(cands)+2)
				want := selectPerPair(ix, cands, keep)
				if got := ix.selectHeuristic(&ix.build, cands, keep); !slices.Equal(got, want) {
					t.Fatalf("%v %s: selectHeuristic of %d for %d keeps %v, per-pair loop %v", m, store, len(cands), keep, got, want)
				}
			}
		}
	}
}

// --- build cost ----------------------------------------------------------------

// Insertion works in the index's build scratch and one borrowed search
// scratch: a 1 000-row AddWithIDs allocates per call — the index's
// slabs, the level generator, the scratch growing to its working size,
// the upper slab doubling — and nothing per row.
func TestAddAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const n, dim = 1000, 16
	vecs := goldenFloats(n*dim, 4)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	for _, m := range buildMetrics {
		for _, quantized := range []bool{false, true} {
			p := index.BuildParams{Dim: dim, Metric: m, M: 8, EfConstruction: 64, Seed: 6}.WithDefaults()
			allocs := testing.AllocsPerRun(3, func() {
				ix, err := New(p, quantized)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.AddWithIDs(vecs, ids); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 80 {
				t.Errorf("%v quantized=%v: New + AddWithIDs of %d rows makes %.0f allocations, want <= 80", m, quantized, n, allocs)
			}
		}
	}
}

// A build allocates about what the index holds. Two collections first
// empty the scratch pool, as the collections of a bulk load do: the
// borrowed scratch then starts small, and its visited table used to be
// reallocated one node larger on every insert — 18 MB for 3 000 rows.
func TestAddBytesBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const n, dim = 3000, 128
	ds := dataset.Small(n, dim, 17)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	ix, err := New(index.BuildParams{Dim: dim, Metric: vec.L2, M: 8, EfConstruction: 80, Seed: 9}.WithDefaults(), false)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated, held := after.TotalAlloc-before.TotalAlloc, uint64(ix.MemoryBytes())
	t.Logf("AddWithIDs of %d rows: %d bytes allocated, %d held", n, allocated, held)
	if allocated > 2*held {
		t.Errorf("AddWithIDs of %d rows allocates %d bytes for an index of %d, want <= 2x", n, allocated, held)
	}
}

// BenchmarkBuild builds at the standing benchmark's auto-index
// parameters (M 8, ef_construction 80): its 3 000 × 128-d segment, and
// 8 000 × 64-d rows, both batched (-cpu 1,2 shows what the second core
// buys); and a 750 × 128-d segment, under the batching threshold, so
// built serially in one call.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct{ n, dim int }{{3000, 128}, {8000, 64}, {750, 128}} {
		b.Run(fmt.Sprintf("%dx%d", c.n, c.dim), func(b *testing.B) {
			ds := dataset.Small(c.n, c.dim, 17)
			ids := make([]int64, c.n)
			for i := range ids {
				ids[i] = int64(i)
			}
			p := index.BuildParams{Dim: c.dim, Metric: vec.L2, M: 8, EfConstruction: 80, Seed: 9}.WithDefaults()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := New(p, false)
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.AddWithIDs(ds.Vectors.Data, ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
