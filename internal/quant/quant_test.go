package quant

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"blendhouse/internal/vec"
)

func randomData(rows, dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, rows*dim)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

// --- scalar quantizer ----------------------------------------------------

func TestScalarRoundTripError(t *testing.T) {
	dim := 16
	data := randomData(500, dim, 1)
	sq, err := TrainScalar(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, sq.CodeSize())
	dec := make([]float32, dim)
	var worst float64
	for r := 0; r < 500; r++ {
		v := data[r*dim : (r+1)*dim]
		sq.Encode(v, code)
		sq.Decode(code, dec)
		for d := 0; d < dim; d++ {
			e := math.Abs(float64(v[d] - dec[d]))
			if e > worst {
				worst = e
			}
		}
	}
	// 8-bit over a range of ~2 ⇒ step ~1/128; allow one step of error.
	if worst > 2.0/255+1e-4 {
		t.Fatalf("worst reconstruction error %v too large", worst)
	}
}

func TestScalarConstantDimension(t *testing.T) {
	dim := 4
	data := make([]float32, 20*dim)
	for r := 0; r < 20; r++ {
		data[r*dim] = 7 // constant first dim
		for d := 1; d < dim; d++ {
			data[r*dim+d] = float32(r) * 0.1
		}
	}
	sq, err := TrainScalar(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, dim)
	dec := make([]float32, dim)
	sq.Encode(data[:dim], code)
	sq.Decode(code, dec)
	if dec[0] != 7 {
		t.Fatalf("constant dim decoded to %v, want 7", dec[0])
	}
}

func TestScalarTrainErrors(t *testing.T) {
	if _, err := TrainScalar(nil, 4); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := TrainScalar(make([]float32, 7), 4); err == nil {
		t.Error("ragged data should fail")
	}
	if _, err := TrainScalar(make([]float32, 8), 0); err == nil {
		t.Error("dim 0 should fail")
	}
}

func TestScalarMarshalRoundTrip(t *testing.T) {
	dim := 6
	data := randomData(100, dim, 4)
	sq, err := TrainScalar(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	sq2, err := UnmarshalScalar(sq.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	code1 := make([]byte, dim)
	code2 := make([]byte, dim)
	sq.Encode(data[:dim], code1)
	sq2.Encode(data[:dim], code2)
	for d := range code1 {
		if code1[d] != code2[d] {
			t.Fatal("marshal roundtrip changed encoding")
		}
	}
	if _, err := UnmarshalScalar([]byte{1}); err == nil {
		t.Error("truncated blob should fail")
	}
}

// The wire form repeats the one (min, step) pair per dimension; a blob
// whose dimensions disagree, even in one bit of one step, is refused.
func TestUnmarshalScalarRejectsPerDimensionRanges(t *testing.T) {
	dim := 6
	sq, err := TrainScalar(randomData(100, dim, 4), dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{4 + 8*3, 8 + 8*3, 8 + 8*(dim-1)} { // min, step of dim 3; last step
		blob := sq.Marshal()
		binary.LittleEndian.PutUint32(blob[off:], binary.LittleEndian.Uint32(blob[off:])^1)
		if _, err := UnmarshalScalar(blob); err == nil {
			t.Errorf("a blob with the word at %d changed loaded", off)
		}
	}
	if _, err := UnmarshalScalar([]byte{0, 0, 0, 0}); err == nil {
		t.Error("a dim-0 blob loaded")
	}
}

// A sample that starts with NaN trains a NaN range (no comparison moves
// min or max off it). Reloading it must give the quantizer that was
// saved, bit for bit, so a segment runs the same kernels before and
// after a restart.
func TestNaNTrainedQuantizerReloadsUnchanged(t *testing.T) {
	dim := 4
	data := randomData(10, dim, 5)
	data[0] = float32(math.NaN())
	sq, err := TrainScalar(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalScalar(sq.Marshal())
	if err != nil {
		t.Fatalf("reloading a NaN-trained quantizer: %v", err)
	}
	if back.Dim != sq.Dim || math.Float32bits(back.Min) != math.Float32bits(sq.Min) ||
		math.Float32bits(back.Step) != math.Float32bits(sq.Step) {
		t.Fatalf("reloaded %+v, saved %+v", *back, *sq)
	}
}

// --- product quantizer ---------------------------------------------------

func TestPQTrainValidation(t *testing.T) {
	data := randomData(100, 8, 5)
	if _, err := TrainPQ(data, 8, 3, 8, 1); err == nil {
		t.Error("M not dividing dim should fail")
	}
	if _, err := TrainPQ(data, 8, 4, 5, 1); err == nil {
		t.Error("nbits=5 should fail")
	}
	if _, err := TrainPQ(nil, 8, 4, 8, 1); err == nil {
		t.Error("empty data should fail")
	}
}

func TestPQReconstructionBeatsRandom(t *testing.T) {
	dim := 16
	data := randomData(800, dim, 6)
	pq, err := TrainPQ(data, dim, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, pq.CodeSize())
	dec := make([]float32, dim)
	var reconErr, randErr float64
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < 200; r++ {
		v := data[r*dim : (r+1)*dim]
		pq.Encode(v, code)
		pq.Decode(code, dec)
		reconErr += float64(vec.L2Squared(v, dec))
		other := data[rng.Intn(800)*dim:]
		randErr += float64(vec.L2Squared(v, other[:dim]))
	}
	if reconErr >= randErr/2 {
		t.Fatalf("PQ reconstruction error %v not much better than random pairing %v", reconErr, randErr)
	}
}

func TestADCMatchesDecodedDistance(t *testing.T) {
	dim := 12
	data := randomData(400, dim, 7)
	for _, nbits := range []int{4, 8} {
		pq, err := TrainPQ(data, dim, 4, nbits, 2)
		if err != nil {
			t.Fatal(err)
		}
		q := data[:dim]
		adc := pq.BuildADC(vec.L2, q)
		code := make([]byte, pq.CodeSize())
		dec := make([]float32, dim)
		for r := 1; r < 100; r++ {
			pq.Encode(data[r*dim:(r+1)*dim], code)
			pq.Decode(code, dec)
			want := vec.L2Squared(q, dec)
			got := adc.Distance(code)
			if math.Abs(float64(want-got)) > 1e-3 {
				t.Fatalf("nbits=%d row %d: ADC %v != decoded L2 %v", nbits, r, got, want)
			}
		}
	}
}

func TestADCInnerProduct(t *testing.T) {
	dim := 8
	data := randomData(300, dim, 8)
	pq, err := TrainPQ(data, dim, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := data[:dim]
	adc := pq.BuildADC(vec.InnerProduct, q)
	code := make([]byte, pq.CodeSize())
	dec := make([]float32, dim)
	pq.Encode(data[dim:2*dim], code)
	pq.Decode(code, dec)
	want := -vec.Dot(q, dec)
	if got := adc.Distance(code); math.Abs(float64(want-got)) > 1e-3 {
		t.Fatalf("IP ADC %v != %v", got, want)
	}
}

func TestPQ4BitCodePacking(t *testing.T) {
	dim := 8
	data := randomData(300, dim, 10)
	pq, err := TrainPQ(data, dim, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pq.CodeSize() != 2 {
		t.Fatalf("4 subquantizers × 4 bits should pack to 2 bytes, got %d", pq.CodeSize())
	}
	code := make([]byte, 2)
	pq.Encode(data[:dim], code)
	// Every nibble must be < 16 by construction; decode must not panic.
	dec := make([]float32, dim)
	pq.Decode(code, dec)
}

func TestPQMarshalRoundTrip(t *testing.T) {
	dim := 8
	data := randomData(300, dim, 11)
	pq, err := TrainPQ(data, dim, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	pq2, err := UnmarshalPQ(pq.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	c1 := make([]byte, pq.CodeSize())
	c2 := make([]byte, pq2.CodeSize())
	pq.Encode(data[:dim], c1)
	pq2.Encode(data[:dim], c2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("marshal roundtrip changed encoding")
		}
	}
	if _, err := UnmarshalPQ([]byte{0, 1, 2}); err == nil {
		t.Error("truncated blob should fail")
	}
}
