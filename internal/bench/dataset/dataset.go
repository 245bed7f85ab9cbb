// Package dataset generates the deterministic synthetic datasets that
// stand in for the paper's Cohere (1M×768), OpenAI (5M×1536), LAION
// (1M×512) and ByteDance-production corpora (see DESIGN.md §2 for the
// substitution rationale). Vectors are drawn from a Gaussian mixture —
// clustered data is what makes ANN indexes, IVF pruning and semantic
// partitioning behave the way they do on real embeddings — and every
// generator takes an explicit seed, so tests and benchmarks are
// reproducible.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"blendhouse/internal/vec"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name     string
	N        int // base vectors
	Dim      int
	Queries  int     // query vectors (drawn near cluster centers)
	Clusters int     // mixture components; default max(8, N/1000)
	Sigma    float64 // within-cluster stddev; default 0.08
	Seed     int64

	// Scalar column toggles.
	WithInts     bool // uniform random int64 in [0, 1_000_000) — the Cohere/OpenAI "random int" column
	WithFloats   bool // uniform random float64 in [0, 1) — LAION's caption-image similarity
	WithCaptions bool // synthetic text captions — LAION's regex target
	WithProdCols bool // production-like columns: category, region, timestamp
}

func (s Spec) withDefaults() Spec {
	if s.Clusters <= 0 {
		s.Clusters = s.N / 1000
		if s.Clusters < 8 {
			s.Clusters = 8
		}
	}
	if s.Sigma <= 0 {
		s.Sigma = 0.08
	}
	if s.Queries <= 0 {
		s.Queries = 100
	}
	return s
}

// Dataset is a generated corpus: vectors, optional scalar columns and
// query vectors.
type Dataset struct {
	Spec    Spec
	Vectors *vec.Matrix
	Queries *vec.Matrix

	// ClusterOf[i] is the mixture component row i was drawn from —
	// handy for asserting that semantic partitioning groups rows
	// sensibly.
	ClusterOf []int

	Ints     []int64   // WithInts
	Floats   []float64 // WithFloats
	Captions []string  // WithCaptions
	Category []string  // WithProdCols
	Region   []string  // WithProdCols
	TSMillis []int64   // WithProdCols, ascending
}

// Generate builds the dataset described by spec.
func Generate(spec Spec) *Dataset {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	centers := vec.NewMatrix(spec.Clusters, spec.Dim)
	for c := 0; c < spec.Clusters; c++ {
		row := centers.Row(c)
		for d := range row {
			row[d] = rng.Float32()
		}
	}
	ds := &Dataset{
		Spec:      spec,
		Vectors:   vec.NewMatrix(spec.N, spec.Dim),
		Queries:   vec.NewMatrix(spec.Queries, spec.Dim),
		ClusterOf: make([]int, spec.N),
	}
	for i := 0; i < spec.N; i++ {
		c := rng.Intn(spec.Clusters)
		ds.ClusterOf[i] = c
		row := ds.Vectors.Row(i)
		crow := centers.Row(c)
		for d := range row {
			row[d] = crow[d] + float32(rng.NormFloat64()*spec.Sigma)
		}
	}
	for i := 0; i < spec.Queries; i++ {
		c := rng.Intn(spec.Clusters)
		row := ds.Queries.Row(i)
		crow := centers.Row(c)
		for d := range row {
			row[d] = crow[d] + float32(rng.NormFloat64()*spec.Sigma)
		}
	}
	if spec.WithInts {
		ds.Ints = make([]int64, spec.N)
		for i := range ds.Ints {
			ds.Ints[i] = rng.Int63n(1_000_000)
		}
	}
	if spec.WithFloats {
		ds.Floats = make([]float64, spec.N)
		for i := range ds.Floats {
			ds.Floats[i] = rng.Float64()
		}
	}
	if spec.WithCaptions {
		ds.Captions = make([]string, spec.N)
		for i := range ds.Captions {
			ds.Captions[i] = caption(rng)
		}
	}
	if spec.WithProdCols {
		ds.Category = make([]string, spec.N)
		ds.Region = make([]string, spec.N)
		ds.TSMillis = make([]int64, spec.N)
		base := int64(1_700_000_000_000)
		for i := 0; i < spec.N; i++ {
			ds.Category[i] = prodCategories[rng.Intn(len(prodCategories))]
			ds.Region[i] = prodRegions[rng.Intn(len(prodRegions))]
			base += rng.Int63n(2000)
			ds.TSMillis[i] = base
		}
	}
	return ds
}

var captionWords = []string{
	"a", "photo", "of", "the", "cat", "dog", "mountain", "sunset", "city",
	"vintage", "car", "portrait", "landscape", "abstract", "painting",
	"blue", "red", "0", "1", "2", "woman", "man", "child", "beach", "forest",
}

var (
	prodCategories = []string{"animal", "landscape", "people", "food", "vehicle", "fashion", "art", "sports"}
	prodRegions    = []string{"cn-north", "us-east", "eu-west", "ap-south"}
)

func caption(rng *rand.Rand) string {
	n := 3 + rng.Intn(8)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += captionWords[rng.Intn(len(captionWords))]
	}
	return out
}

// Preset datasets ---------------------------------------------------------

// Cohere mirrors the paper's Cohere workload: 768-d text embeddings
// with a random-int filter column.
func Cohere(n int, seed int64) *Dataset {
	return Generate(Spec{Name: "cohere", N: n, Dim: 768, Seed: seed, WithInts: true})
}

// OpenAI mirrors the paper's OpenAI workload: 1536-d embeddings with a
// random-int filter column.
func OpenAI(n int, seed int64) *Dataset {
	return Generate(Spec{Name: "openai", N: n, Dim: 1536, Seed: seed, WithInts: true})
}

// LAION mirrors the paper's LAION workload: 512-d image embeddings
// with text captions and a caption-image similarity float column.
func LAION(n int, seed int64) *Dataset {
	return Generate(Spec{Name: "laion", N: n, Dim: 512, Seed: seed, WithFloats: true, WithCaptions: true})
}

// Small returns a low-dimensional dataset for unit tests.
func Small(n, dim int, seed int64) *Dataset {
	return Generate(Spec{Name: "small", N: n, Dim: dim, Seed: seed, Clusters: 8, WithInts: true})
}

// Ground truth -------------------------------------------------------------

// GroundTruth computes, by exact scan, the k nearest base rows for
// each query under the metric, optionally restricted to rows where
// keep(i) is true. It is the recall oracle of the benchmark harness.
func (ds *Dataset) GroundTruth(m vec.Metric, k int, keep func(i int) bool) [][]int64 {
	out := make([][]int64, ds.Queries.Rows())
	n := ds.Vectors.Rows()
	type cand struct {
		id   int64
		dist float32
	}
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		q := ds.Queries.Row(qi)
		cands := make([]cand, 0, n)
		for i := 0; i < n; i++ {
			if keep != nil && !keep(i) {
				continue
			}
			cands = append(cands, cand{int64(i), vec.Distance(m, q, ds.Vectors.Row(i))})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].dist != cands[b].dist {
				return cands[a].dist < cands[b].dist
			}
			return cands[a].id < cands[b].id
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		ids := make([]int64, len(cands))
		for i, c := range cands {
			ids[i] = c.id
		}
		out[qi] = ids
	}
	return out
}

// Recall returns |got ∩ truth| / |truth| averaged over queries — the
// standard recall@k.
func Recall(truth [][]int64, got [][]int64) float64 {
	if len(truth) != len(got) {
		panic(fmt.Sprintf("dataset: recall arity mismatch %d != %d", len(truth), len(got)))
	}
	total, hit := 0, 0
	for qi := range truth {
		want := make(map[int64]bool, len(truth[qi]))
		for _, id := range truth[qi] {
			want[id] = true
		}
		total += len(truth[qi])
		for _, id := range got[qi] {
			if want[id] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
