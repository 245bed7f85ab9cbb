package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked kernels must be BITWISE identical to the scalar kernels:
// query results flow straight out of them, and the "blocked kernels
// change no result" contract is what lets every scan path adopt them.
// Dims cover non-multiple-of-4/8 tails and the empty vector; row
// counts cover the odd-tail path of the pair microkernels.

var kernelDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 31, 32, 33, 64, 96, 100, 129}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*4 - 2
	}
	return v
}

func TestBatchKernelsBitwiseEqualScalar(t *testing.T) {
	skipIfFused(t)
	rng := rand.New(rand.NewSource(42))
	for _, dim := range kernelDims {
		for _, rows := range []int{0, 1, 2, 3, 5, 8, 9, 17} {
			q := randVec(rng, dim)
			data := randVec(rng, rows*dim)
			got := make([]float32, rows)
			for _, m := range []Metric{L2, InnerProduct, Cosine} {
				DistancesTo(m, q, data, dim, got)
				for r := 0; r < rows; r++ {
					want := Distance(m, q, data[r*dim:(r+1)*dim])
					if math.Float32bits(got[r]) != math.Float32bits(want) {
						t.Fatalf("%v dim=%d rows=%d row=%d: batch %v != scalar %v", m, dim, rows, r, got[r], want)
					}
				}
			}
		}
	}
}

func TestBatchKernelsDirectEntryPoints(t *testing.T) {
	skipIfFused(t)
	rng := rand.New(rand.NewSource(7))
	dim, rows := 33, 9
	q := randVec(rng, dim)
	data := randVec(rng, rows*dim)
	l2 := make([]float32, rows)
	dot := make([]float32, rows)
	cos := make([]float32, rows)
	L2SquaredBatch(q, data, dim, l2)
	DotBatch(q, data, dim, dot)
	CosineBatch(q, data, dim, cos)
	for r := 0; r < rows; r++ {
		row := data[r*dim : (r+1)*dim]
		if math.Float32bits(l2[r]) != math.Float32bits(L2Squared(q, row)) {
			t.Fatalf("L2SquaredBatch row %d mismatch", r)
		}
		if math.Float32bits(dot[r]) != math.Float32bits(Dot(q, row)) {
			t.Fatalf("DotBatch row %d mismatch", r)
		}
		if math.Float32bits(cos[r]) != math.Float32bits(CosineDistance(q, row)) {
			t.Fatalf("CosineBatch row %d mismatch", r)
		}
	}
}

// TestBatchKernelsAcrossChunkSeam: the contiguous kernels gather 256
// rows per call, so row counts on either side of one and two chunk
// seams, over data exactly rows·dim long, must stay bitwise the scalar
// kernels — no row lost, repeated or read past the end at a seam.
func TestBatchKernelsAcrossChunkSeam(t *testing.T) {
	skipIfFused(t)
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{3, 96, 128, 129} {
		for _, rows := range []int{255, 256, 257, 513} {
			q := randVec(rng, dim)
			data := randVec(rng, rows*dim)
			data = data[:len(data):len(data)]
			l2, dot := make([]float32, rows), make([]float32, rows)
			L2SquaredBatch(q, data, dim, l2)
			DotBatch(q, data, dim, dot)
			for r := 0; r < rows; r++ {
				row := data[r*dim : (r+1)*dim]
				if want := L2Squared(q, row); !bitsEqual(l2[r], want) {
					t.Fatalf("dim %d, %d rows, row %d: L2SquaredBatch %v, L2Squared %v", dim, rows, r, l2[r], want)
				}
				if want := Dot(q, row); !bitsEqual(dot[r], want) {
					t.Fatalf("dim %d, %d rows, row %d: DotBatch %v, Dot %v", dim, rows, r, dot[r], want)
				}
			}
		}
	}
}

func TestBatchKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const dim, rows = 128, 600
	q, data := randVec(rng, dim), randVec(rng, rows*dim)
	out := make([]float32, rows)
	if n := testing.AllocsPerRun(50, func() { L2SquaredBatch(q, data, dim, out) }); n != 0 {
		t.Errorf("L2SquaredBatch: %v allocations per call", n)
	}
	if n := testing.AllocsPerRun(50, func() { DotBatch(q, data, dim, out) }); n != 0 {
		t.Errorf("DotBatch: %v allocations per call", n)
	}
}

// Threshold kernels: with an infinite threshold they are bitwise equal
// to the plain kernels; with a finite threshold every non-abandoned
// entry is exact and every abandoned entry is strictly above the
// threshold (so a top-k heap holding worst <= thr must reject it).
func TestThresholdKernelsSoundness(t *testing.T) {
	skipIfFused(t)
	rng := rand.New(rand.NewSource(99))
	for _, dim := range kernelDims {
		for _, rows := range []int{0, 1, 2, 5, 16, 33} {
			q := randVec(rng, dim)
			data := randVec(rng, rows*dim)
			exact := make([]float32, rows)
			L2SquaredBatch(q, data, dim, exact)

			inf := make([]float32, rows)
			L2SquaredBatchThreshold(q, data, dim, inf, math.MaxFloat32)
			for r := range inf {
				if math.Float32bits(inf[r]) != math.Float32bits(exact[r]) {
					t.Fatalf("dim=%d rows=%d row=%d: thr=inf %v != exact %v", dim, rows, r, inf[r], exact[r])
				}
			}

			// Pick a threshold in the middle of the observed range.
			var thr float32
			for _, d := range exact {
				thr += d
			}
			if rows > 0 {
				thr /= float32(rows)
			}
			got := make([]float32, rows)
			L2SquaredBatchThreshold(q, data, dim, got, thr)
			for r := range got {
				if got[r] == exact[r] {
					continue // full computation: must be exact (bitwise checked above)
				}
				if !(got[r] > thr) {
					t.Fatalf("dim=%d row=%d: abandoned value %v not > thr %v", dim, r, got[r], thr)
				}
				if exact[r] <= thr {
					t.Fatalf("dim=%d row=%d: abandoned a row with exact %v <= thr %v", dim, r, exact[r], thr)
				}
			}

			for r := 0; r < rows; r++ {
				row := data[r*dim : (r+1)*dim]
				d := L2SquaredThreshold(q, row, thr)
				if d != exact[r] && !(d > thr && exact[r] > thr) {
					t.Fatalf("scalar threshold dim=%d row=%d: got %v exact %v thr %v", dim, r, d, exact[r], thr)
				}
				full := L2SquaredThreshold(q, row, math.MaxFloat32)
				if math.Float32bits(full) != math.Float32bits(exact[r]) {
					t.Fatalf("scalar threshold thr=inf mismatch: %v != %v", full, exact[r])
				}
			}
		}
	}
}

// Zero vectors through the cosine batch kernel must keep the scalar
// kernel's "maximally distant" convention, not produce NaN.
func TestCosineBatchZeroVectors(t *testing.T) {
	dim := 8
	q := make([]float32, dim) // zero query
	data := make([]float32, 3*dim)
	for i := 0; i < dim; i++ {
		data[i] = 1 // row 0 non-zero; rows 1,2 zero
	}
	out := make([]float32, 3)
	CosineBatch(q, data, dim, out)
	for r, d := range out {
		if d != 1 {
			t.Fatalf("row %d: cosine distance to/from zero vector = %v, want 1", r, d)
		}
	}
}

func benchData(b *testing.B, rows, dim int) ([]float32, []float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randVec(rng, dim), randVec(rng, rows*dim)
}

func BenchmarkL2PerRow(b *testing.B) {
	q, data := benchData(b, 256, 96)
	out := make([]float32, 256)
	b.SetBytes(int64(256 * 96 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 256; r++ {
			out[r] = L2Squared(q, data[r*96:(r+1)*96])
		}
	}
	_ = out
}

func BenchmarkL2Batch(b *testing.B) {
	q, data := benchData(b, 256, 96)
	out := make([]float32, 256)
	b.SetBytes(int64(256 * 96 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SquaredBatch(q, data, 96, out)
	}
	_ = out
}

func BenchmarkL2BatchThreshold(b *testing.B) {
	q, data := benchData(b, 256, 96)
	out := make([]float32, 256)
	exact := make([]float32, 256)
	L2SquaredBatch(q, data, 96, exact)
	var thr float32
	for _, d := range exact {
		thr += d
	}
	thr /= 256 * 4 // tight threshold: most rows abandon
	b.SetBytes(int64(256 * 96 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SquaredBatchThreshold(q, data, 96, out, thr)
	}
	_ = out
}

func BenchmarkDotBatch(b *testing.B) {
	q, data := benchData(b, 256, 96)
	out := make([]float32, 256)
	b.SetBytes(int64(256 * 96 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotBatch(q, data, 96, out)
	}
	_ = out
}

func BenchmarkCosineBatch(b *testing.B) {
	q, data := benchData(b, 256, 96)
	out := make([]float32, 256)
	b.SetBytes(int64(256 * 96 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CosineBatch(q, data, 96, out)
	}
	_ = out
}

func BenchmarkCosinePerRow(b *testing.B) {
	q, data := benchData(b, 256, 96)
	out := make([]float32, 256)
	b.SetBytes(int64(256 * 96 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 256; r++ {
			out[r] = CosineDistance(q, data[r*96:(r+1)*96])
		}
	}
	_ = out
}
