package vec

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The gathered kernels must be bitwise the scalar ones: HNSW builds
// its graph out of their results, and a graph is only the same graph
// if every accept test sees the same number. On amd64 gather is SSE,
// checked here against the scalar kernels; elsewhere it runs them.

var gatherDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64, 96, 127, 128, 129, 768, 960}

func bitsEqual(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// fmaProbe: −(1+2⁻¹¹) + (1+2⁻¹²)·(1+2⁻¹²) is 0 with the product rounded
// first and 2⁻²⁴ fused. Variables, so the compiler cannot fold them.
var fmaProbe = [2][]float32{
	{-(1 + 1.0/2048), 0, 0, 0, 1 + 1.0/4096, 0, 0, 0},
	{1, 0, 0, 0, 1 + 1.0/4096, 0, 0, 0},
}

// skipIfFused skips a test that holds the SSE kernel, which never
// fuses, bitwise to the scalar kernels when the compiler has fused
// their multiply-adds into FMA. The Go spec allows that; Go 1.24 does
// not do it on amd64 at any GOAMD64 level. Off amd64 both sides are Go.
func skipIfFused(t *testing.T) {
	if runtime.GOARCH == "amd64" && Dot(fmaProbe[0], fmaProbe[1]) != 0 {
		t.Skip("the scalar kernels were compiled with fused multiply-adds")
	}
}

// checkGather4 runs gather over q and four rows, L2 and inner product,
// as one 4-row step and over each shorter prefix (1-row steps), and
// compares every result with the scalar kernel, bit for bit — or, with
// nanBits unset, any NaN with any NaN.
func checkGather4(t *testing.T, what string, q []float32, xs [4][]float32, nanBits bool) {
	t.Helper()
	same := func(a, b float32) bool {
		return bitsEqual(a, b) || !nanBits && a != a && b != b
	}
	// gather reads rows out of one store, one float off the 16-byte grid.
	dim := len(q)
	data := make([]float32, 1, 1+4*dim)
	for _, x := range xs {
		data = append(data, x...)
	}
	data = data[1:]
	rows := []uint32{0, 1, 2, 3}
	for _, dot := range []bool{false, true} {
		scalar, name := L2Squared, "L2Squared"
		if dot {
			scalar, name = Dot, "Dot"
		}
		for n := 0; n <= 4; n++ {
			var gathered [4]float32
			gather(dot, q, data, rows[:n], gathered[:])
			for j, x := range xs[:n] {
				if want := scalar(q, x); !same(gathered[j], want) {
					t.Fatalf("%s %d rows, row %d: gather %v (%#x), %s %v (%#x)", what, n, j,
						gathered[j], math.Float32bits(gathered[j]), name, want, math.Float32bits(want))
				}
			}
		}
	}
}

func TestGather4BitwiseScalar(t *testing.T) {
	skipIfFused(t)
	rng := rand.New(rand.NewSource(3))
	for _, dim := range gatherDims {
		// One float of offset puts the anchor and every row off the
		// 16-byte grid the 4-float loads would otherwise sit on.
		buf := randVec(rng, 5*dim+1)
		q := buf[1 : 1+dim]
		var xs [4][]float32
		for j := range xs {
			xs[j] = buf[1+(j+1)*dim : 1+(j+2)*dim]
		}
		checkGather4(t, "random", q, xs, true)
		checkGather4(t, "repeated rows", q, [4][]float32{xs[2], xs[2], xs[0], xs[2]}, true)
		checkGather4(t, "anchor among the rows", q, [4][]float32{q, xs[1], q, xs[3]}, true)
	}
}

// Special values go through every lane and the tail: signed zeros,
// denormals, infinities, NaN and magnitudes whose squares or sums
// overflow. NaN is compared by its bits wherever every NaN a kernel
// can meet has one payload: an input NaN, or the default NaN that
// Inf−Inf and 0·Inf produce. When two NaNs of different payloads meet,
// SSE returns the first operand's, and the scalar Dot puts the product
// first in some lanes and the accumulator first in others — a register
// allocator's choice, not a contract — so mixed inputs pin NaN-ness.
func TestGather4SpecialValues(t *testing.T) {
	skipIfFused(t)
	zero, denormal := []float32{0, float32(math.Copysign(0, -1))}, []float32{math.SmallestNonzeroFloat32, -1e-40, 1e-39}
	inf := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32, 2e19, -3e19}
	nan := []float32{float32(math.NaN())}
	classes := []struct {
		name     string
		specials []float32
		nanBits  bool
	}{
		{"infinities and overflow", append(append(zero, denormal...), inf...), true},
		{"NaN", append(append(zero, denormal...), nan...), true},
		{"everything", append(append(append(zero, denormal...), inf...), nan...), false},
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range classes {
		pick := func(n int, pSpecial float64) []float32 {
			v := make([]float32, n)
			for i := range v {
				if rng.Float64() < pSpecial {
					v[i] = c.specials[rng.Intn(len(c.specials))]
				} else {
					v[i] = rng.Float32()*4 - 2
				}
			}
			return v
		}
		for _, dim := range gatherDims {
			for round := 0; round < 30; round++ {
				p := []float64{0.02, 0.2, 1}[round%3]
				q := pick(dim, p)
				var xs [4][]float32
				for j := range xs {
					xs[j] = pick(dim, p)
				}
				checkGather4(t, c.name, q, xs, c.nanBits)
			}
		}
	}
}

func TestGatherDistancesBitwise(t *testing.T) {
	skipIfFused(t)
	rng := rand.New(rand.NewSource(5))
	const nRows = 12
	for _, dim := range gatherDims {
		data := randVec(rng, nRows*dim+1)[1:] // rows one float off the grid
		q := randVec(rng, dim)
		for n := 0; n <= 17; n++ {
			rows := make([]uint32, n)
			for k := range rows {
				rows[k] = uint32(rng.Intn(nRows)) // past 12 rows, repeats are certain
			}
			out := make([]float32, n)
			for _, m := range []Metric{L2, InnerProduct, Cosine} {
				GatherDistances(m, q, data, rows, out)
				for k, r := range rows {
					want := Distance(m, q, data[int(r)*dim:int(r+1)*dim])
					if !bitsEqual(out[k], want) {
						t.Fatalf("%v dim %d, %d rows, row %d (%d): gathered %v, Distance %v", m, dim, n, k, r, out[k], want)
					}
				}
			}
		}
	}
}

// A row past the end of data is a caller bug that must fail as Go
// slicing fails, never as a read beyond the slice: in a 4-row step, in
// the 1-row tail, for a contiguous batch longer than its data; and so
// must an out shorter than rows, and a contiguous stride other than
// len(q).
func TestGatherDistancesBoundsChecked(t *testing.T) {
	const dim = 8
	q, data := make([]float32, dim), make([]float32, 3*dim)
	for name, call := range map[string]func(){
		"4-row step":    func() { GatherDistances(L2, q, data, []uint32{0, 1, 2, 3}, make([]float32, 4)) },
		"1-row tail":    func() { GatherDistances(InnerProduct, q, data, []uint32{0, 1, 2, 0, 3}, make([]float32, 5)) },
		"beyond 2^32":   func() { GatherDistances(L2, q, data, []uint32{math.MaxUint32}, make([]float32, 1)) },
		"short row":     func() { GatherDistances(L2, q, data[:3*dim-1:3*dim-1], []uint32{2}, make([]float32, 1)) },
		"contiguous":    func() { L2SquaredBatch(q, data, dim, make([]float32, 4)) },
		"dim != len(q)": func() { DotBatch(q, data, dim-1, make([]float32, 2)) },
		"out too short": func() { GatherDistances(L2, q, data, []uint32{0, 1}, make([]float32, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: gathering a row past the end of data did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkGather scores 32 rows scattered over a 3 000-row store, the
// shape of an HNSW expansion at 128 dimensions, gathered and per row.
func BenchmarkGather(b *testing.B) {
	const dim, nRows, batch = 128, 3000, 32
	rng := rand.New(rand.NewSource(1))
	q, data := randVec(rng, dim), randVec(rng, nRows*dim)
	rows := make([]uint32, batch)
	for k := range rows {
		rows[k] = uint32(rng.Intn(nRows))
	}
	out := make([]float32, batch)
	b.Run("gathered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GatherDistances(L2, q, data, rows, out)
		}
	})
	b.Run("per-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, r := range rows {
				out[k] = L2Squared(q, data[int(r)*dim:int(r+1)*dim])
			}
		}
	})
}
