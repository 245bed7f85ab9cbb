// Package kmeans implements Lloyd's k-means with k-means++ seeding.
//
// It serves two roles in BlendHouse: training the coarse quantizer of
// IVF-family indexes (the K_IVF centroids of paper §III-B "Auto
// index"), and the semantic similarity-based partitioning of
// CLUSTER BY ... INTO n BUCKETS (paper §IV-B), where ingested vectors
// are routed to the bucket whose centroid is nearest.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"blendhouse/internal/vec"
)

// Config controls a k-means run.
type Config struct {
	K        int   // number of centroids; must be >= 1
	MaxIters int   // Lloyd iterations; default 15
	Seed     int64 // RNG seed for reproducible training
}

// minDelta stops Lloyd iterations early once the relative inertia
// improvement drops below it.
const minDelta = 1e-4

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxIters <= 0 {
		out.MaxIters = 15
	}
	return out
}

// Result holds trained centroids and assignment metadata.
type Result struct {
	Centroids *vec.Matrix // K rows
	Assign    []int       // cluster id per training row
	Inertia   float64     // final sum of squared distances
	Iters     int         // Lloyd iterations actually run
}

// Train runs k-means++ seeding followed by Lloyd iterations on the
// rows of data. If there are fewer rows than K, the surplus centroids
// are duplicated from existing rows; search still works, clusters are
// just degenerate — this matches faiss's behaviour of warning rather
// than failing on tiny training sets.
func Train(data *vec.Matrix, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	n := data.Rows()
	if n == 0 {
		return nil, fmt.Errorf("kmeans: empty training set")
	}
	dim := data.Dim
	rng := rand.New(rand.NewSource(cfg.Seed))

	cents := seedPlusPlus(data, cfg.K, rng)
	assign := make([]int, n)
	dists := make([]float32, cfg.K)
	counts := make([]int, cfg.K)
	sums := make([]float64, cfg.K*dim)

	prevInertia := math.Inf(1)
	var inertia float64
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters = it + 1
		inertia = 0
		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for r := 0; r < n; r++ {
			row := data.Row(r)
			vec.DistancesTo(vec.L2, row, cents.Data, dim, dists)
			best := vec.ArgMin(dists)
			assign[r] = best
			inertia += float64(dists[best])
			counts[best]++
			for d := 0; d < dim; d++ {
				sums[best*dim+d] += float64(row[d])
			}
		}
		// Recompute centroids; empty clusters are re-seeded from the
		// point farthest from its centroid to avoid dead centroids.
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				far := farthestPoint(data, cents, assign)
				cents.SetRow(c, data.Row(far))
				continue
			}
			inv := 1 / float64(counts[c])
			crow := cents.Row(c)
			for d := 0; d < dim; d++ {
				crow[d] = float32(sums[c*dim+d] * inv)
			}
		}
		if prevInertia-inertia < minDelta*math.Max(prevInertia, 1) {
			break
		}
		prevInertia = inertia
	}
	return &Result{Centroids: cents, Assign: assign, Inertia: inertia, Iters: iters}, nil
}

// seedPlusPlus picks K initial centroids with k-means++ (D^2 weighted
// sampling). When n < K, rows are reused round-robin.
func seedPlusPlus(data *vec.Matrix, k int, rng *rand.Rand) *vec.Matrix {
	n := data.Rows()
	dim := data.Dim
	cents := vec.NewMatrix(k, dim)
	if n == 0 {
		return cents
	}
	first := rng.Intn(n)
	cents.SetRow(0, data.Row(first))
	if k == 1 {
		return cents
	}
	// d2[i] = squared distance from row i to its nearest chosen centroid.
	d2 := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		d2[i] = float64(vec.L2Squared(data.Row(i), cents.Row(0)))
		total += d2[i]
	}
	for c := 1; c < k; c++ {
		var pick int
		if total <= 0 {
			pick = c % n // all points identical; duplicate
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i := 0; i < n; i++ {
				acc += d2[i]
				if acc >= target {
					pick = i
					break
				}
			}
		}
		cents.SetRow(c, data.Row(pick))
		// Update d2 against the new centroid.
		total = 0
		for i := 0; i < n; i++ {
			d := float64(vec.L2Squared(data.Row(i), cents.Row(c)))
			if d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
	}
	return cents
}

// farthestPoint returns the row index with the largest distance to its
// assigned centroid — used to reseed empty clusters.
func farthestPoint(data *vec.Matrix, cents *vec.Matrix, assign []int) int {
	worst, worstD := 0, float32(-1)
	for r := 0; r < data.Rows(); r++ {
		d := vec.L2Squared(data.Row(r), cents.Row(assign[r]))
		if d > worstD {
			worst, worstD = r, d
		}
	}
	return worst
}

// AssignNearest returns, for each row of data, the index of the
// nearest centroid. It is used at ingest time to route rows into
// semantic buckets and at query time to rank segments by centroid
// distance.
func AssignNearest(data *vec.Matrix, cents *vec.Matrix) []int {
	n := data.Rows()
	out := make([]int, n)
	dists := make([]float32, cents.Rows())
	for r := 0; r < n; r++ {
		vec.DistancesTo(vec.L2, data.Row(r), cents.Data, cents.Dim, dists)
		out[r] = vec.ArgMin(dists)
	}
	return out
}

// Nearest returns the index of the centroid nearest to q and the
// distance to it.
func Nearest(q []float32, cents *vec.Matrix) (int, float32) {
	dists := make([]float32, cents.Rows())
	vec.DistancesTo(vec.L2, q, cents.Data, cents.Dim, dists)
	i := vec.ArgMin(dists)
	if i < 0 {
		return -1, 0
	}
	return i, dists[i]
}
