package quant

import (
	"math"
	"math/rand"
	"testing"

	"blendhouse/internal/vec"
)

// The SQ integer/precomputed fast paths must agree with the
// decode-then-float reference within float rounding: the expansions
// are algebraically exact on decoded values, so only accumulation
// order differs.

func relClose(a, b, scale float64) bool {
	return math.Abs(a-b) <= 2e-3*(math.Abs(scale)+1)
}

func randRows(rng *rand.Rand, rows, dim int) []float32 {
	data := make([]float32, rows*dim)
	for i := range data {
		data[i] = rng.Float32()*6 - 3
	}
	return data
}

// symQuery encodes q and makes it the symmetric query, as the HNSWSQ
// store does once per search.
func symQuery(sq *ScalarQuantizer, q []float32) *SymQuery {
	qc := make([]byte, sq.Dim)
	sq.Encode(q, qc)
	sum, sumSq := CodeStats(qc)
	s := new(SymQuery)
	sq.SetSymCode(s, qc, sum, sumSq)
	return s
}

func TestSymQueryMatchesDecodeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{1, 3, 4, 7, 8, 31, 96} {
		data := randRows(rng, 64, dim)
		sq, err := TrainScalar(data, dim)
		if err != nil {
			t.Fatal(err)
		}
		q := data[:dim]
		sym := symQuery(sq, q)
		decQ := make([]float32, dim)
		sq.Decode(sym.qc, decQ)
		code := make([]byte, dim)
		dec := make([]float32, dim)
		for r := 1; r < 64; r++ {
			sq.Encode(data[r*dim:(r+1)*dim], code)
			sum, sumSq := CodeStats(code)
			sq.Decode(code, dec)

			wantDot := vec.Dot(decQ, dec)
			gotDot := sym.DotDecoded(code, sum)
			if !relClose(float64(gotDot), float64(wantDot), float64(vec.Norm(decQ))*float64(vec.Norm(dec))) {
				t.Fatalf("dim=%d row=%d: DotDecoded %v != reference %v", dim, r, gotDot, wantDot)
			}

			wantCos := vec.CosineDistance(decQ, dec)
			gotCos := sym.CosineDecoded(code, sum, sumSq)
			if math.Abs(float64(gotCos-wantCos)) > 2e-3 {
				t.Fatalf("dim=%d row=%d: CosineDecoded %v != reference %v", dim, r, gotCos, wantCos)
			}
		}
	}
}

func TestCodeDotAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 3, 4, 5, 96} {
		a := make([]byte, n)
		b := make([]byte, n)
		for i := 0; i < n; i++ {
			a[i] = byte(rng.Intn(256))
			b[i] = byte(rng.Intn(256))
		}
		var wantDot, wantSum, wantSq int32
		for i := 0; i < n; i++ {
			wantDot += int32(a[i]) * int32(b[i])
			wantSum += int32(a[i])
			wantSq += int32(a[i]) * int32(a[i])
		}
		if got := CodeDot(a, b); got != wantDot {
			t.Fatalf("n=%d: CodeDot = %d, want %d", n, got, wantDot)
		}
		sum, sumSq := CodeStats(a)
		if sum != wantSum || sumSq != wantSq {
			t.Fatalf("n=%d: CodeStats = %d,%d want %d,%d", n, sum, sumSq, wantSum, wantSq)
		}
	}
}

// Fully constant training data through the uniform quantizer: step 0
// everywhere. Every fast path must return finite values and the
// self-distances must be exact.
func TestConstantColumnUniformFastPaths(t *testing.T) {
	for _, c := range []float32{0, 3.5} {
		dim := 8
		data := make([]float32, 5*dim)
		for i := range data {
			data[i] = c
		}
		sq, err := TrainScalar(data, dim)
		if err != nil {
			t.Fatal(err)
		}
		if sq.Step != 0 {
			t.Fatalf("constant data should learn step 0, got %v", sq.Step)
		}
		q := data[:dim]
		code := make([]byte, dim)
		sq.Encode(q, code)
		sum, sumSq := CodeStats(code)

		if d := sq.CodeL2Squared(code, code); d != 0 {
			t.Fatalf("CodeL2Squared = %v", d)
		}
		sym := symQuery(sq, q)
		dot := sym.DotDecoded(code, sum)
		if math.IsNaN(float64(dot)) || !relClose(float64(dot), float64(c)*float64(c)*float64(dim), float64(c)*float64(c)*float64(dim)) {
			t.Fatalf("c=%v: DotDecoded = %v", c, dot)
		}
		cos := sym.CosineDecoded(code, sum, sumSq)
		if math.IsNaN(float64(cos)) {
			t.Fatalf("c=%v: CosineDecoded = NaN", c)
		}
		// Zero vectors are maximally distant (1); otherwise identical
		// vectors are at distance ~0.
		if c == 0 && cos != 1 {
			t.Fatalf("zero constant: cosine = %v, want 1", cos)
		}
		if c != 0 && math.Abs(float64(cos)) > 1e-6 {
			t.Fatalf("constant %v: self cosine distance = %v", c, cos)
		}
	}
}
