// Package vec provides the low-level float32 vector kernels used by
// every index type in BlendHouse: distance functions, batch distance
// computation, norms, and small helpers shared by the quantizers and
// the k-means trainer.
//
// The scalar kernels are bounds-check-friendly loops whose four
// accumulators are four independent dependency chains; the Go compiler
// does not vectorize them. SIMD is the 4-row kernel's (gather.go), four
// rows at once, each bitwise its scalar result. Vectors are plain
// []float32 slices; callers own the memory.
package vec

import (
	"fmt"
	"math"
)

// Metric identifies a distance (or similarity) function between two
// vectors of equal dimension.
type Metric int

const (
	// L2 is squared Euclidean distance. Smaller is closer. We follow
	// faiss and hnswlib in not taking the square root: ordering is
	// preserved and the sqrt is wasted work for top-k search.
	L2 Metric = iota
	// InnerProduct is negative dot product so that, like L2, smaller
	// values are closer. Callers presenting scores to users should
	// negate it back.
	InnerProduct
	// Cosine is cosine distance: 1 - cos(a, b). Smaller is closer.
	Cosine
)

// String returns the SQL-facing name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case InnerProduct:
		return "IP"
	case Cosine:
		return "COSINE"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric maps a SQL distance function name to a Metric.
// Recognized names match the dialect in the paper's Example 1:
// L2Distance, InnerProduct/IPDistance, CosineDistance.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "L2", "L2Distance", "l2distance", "l2":
		return L2, nil
	case "IP", "InnerProduct", "innerProduct", "IPDistance", "ip":
		return InnerProduct, nil
	case "COSINE", "Cosine", "CosineDistance", "cosineDistance", "cosine":
		return Cosine, nil
	default:
		return 0, fmt.Errorf("vec: unknown distance function %q", name)
	}
}

// Distance computes the metric distance between a and b.
// The slices must have equal length; this is the caller's invariant.
func Distance(m Metric, a, b []float32) float32 {
	switch m {
	case L2:
		return L2Squared(a, b)
	case InnerProduct:
		return -Dot(a, b)
	case Cosine:
		return CosineDistance(a, b)
	default:
		panic("vec: invalid metric")
	}
}

// L2Squared returns the squared Euclidean distance between a and b.
func L2Squared(a, b []float32) float32 {
	n := len(a)
	b = b[:n] // bounds-check elimination in the unrolled loop
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	n := len(a)
	b = b[:n] // bounds-check elimination in the unrolled loop
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// CosineDistance returns 1 - cosine similarity. Zero vectors are
// treated as maximally distant (distance 1) rather than NaN.
func CosineDistance(a, b []float32) float32 {
	return cosine(Dot(a, b), Dot(a, a), Dot(b, b))
}

// cosine finishes a cosine distance from Dot(a, b), Dot(a, a) and
// Dot(b, b), the one place every cosine kernel does.
func cosine(dot, na, nb float32) float32 {
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/float32(math.Sqrt(float64(na)*float64(nb)))
}

// Add accumulates src into dst element-wise. Panics on length mismatch.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vec: dimension mismatch in Add")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of a by f in place.
func Scale(a []float32, f float32) {
	for i := range a {
		a[i] *= f
	}
}

// Copy returns a freshly allocated copy of a.
func Copy(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// DistancesTo computes the distance from query q to each row of the
// flat matrix data (len(data) = rows*dim) and writes the results into
// out, which must have length rows. It is the hot loop of brute-force
// scans and the IVF coarse quantizer, and runs on the blocked kernels
// of batch.go — bitwise identical to a per-row Distance loop.
func DistancesTo(m Metric, q []float32, data []float32, dim int, out []float32) {
	switch m {
	case L2:
		L2SquaredBatch(q, data, dim, out)
	case InnerProduct:
		DotBatch(q, data, dim, out)
		for r := range out {
			out[r] = -out[r]
		}
	case Cosine:
		CosineBatch(q, data, dim, out)
	default:
		panic("vec: invalid metric")
	}
}

// ArgMin returns the index of the smallest element of xs, or -1 for an
// empty slice.
func ArgMin(xs []float32) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// Matrix is a dense row-major matrix of float32 vectors. It is the
// common in-memory layout for raw vector columns, centroids, and
// training sets.
type Matrix struct {
	Dim  int
	Data []float32 // len = Rows()*Dim
}

// NewMatrix allocates a rows×dim matrix.
func NewMatrix(rows, dim int) *Matrix {
	return &Matrix{Dim: dim, Data: make([]float32, rows*dim)}
}

// Rows returns the number of vectors stored.
func (m *Matrix) Rows() int {
	if m.Dim == 0 {
		return 0
	}
	return len(m.Data) / m.Dim
}

// Row returns the i-th vector as a subslice (no copy).
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : i*m.Dim+m.Dim]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float32) {
	copy(m.Row(i), v)
}

// Append adds v as a new row, growing the backing slice.
func (m *Matrix) Append(v []float32) {
	if len(v) != m.Dim {
		panic(fmt.Sprintf("vec: append dim %d to matrix dim %d", len(v), m.Dim))
	}
	m.Data = append(m.Data, v...)
}
