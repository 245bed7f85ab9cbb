// Package quant implements the vector compression schemes used by the
// quantized index types: an 8-bit scalar quantizer (SQ8, backing
// HNSWSQ), a product quantizer with asymmetric distance computation
// (PQ, backing IVFPQ), and a 4-bit "fast scan" product quantizer
// (PQFS, backing IVFPQFS). The cost model of paper §IV-A charges c_c
// per ADC evaluation and c_d per exact distance; these types are where
// c_c is spent.
package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// ScalarQuantizer compresses float32 vectors to one uint8 per
// dimension over one [Min, Min+255·Step] range shared by every
// dimension (faiss's QT_8bit_uniform), so distances between codes are
// integer sums scaled once — the arithmetic saving behind the BH-HNSWSQ
// trade-off of paper Table V/VI: ~4x less memory for a small recall
// loss.
type ScalarQuantizer struct {
	Dim  int
	Min  float32 // the lower bound of every dimension
	Step float32 // (max-min)/255; 0 for constant training data
}

// TrainScalar learns one [min, max] range across all dimensions from
// the rows of data (flat row-major, len = rows*dim).
func TrainScalar(data []float32, dim int) (*ScalarQuantizer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("quant: dim must be positive, got %d", dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("quant: training data length %d not a multiple of dim %d", len(data), dim)
	}
	mn, mx := data[0], data[0]
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return &ScalarQuantizer{Dim: dim, Min: mn, Step: (mx - mn) / 255}, nil
}

// CodeL2Squared computes squared L2 distance between two encoded
// vectors: a pure integer loop with one final float multiply.
func (sq *ScalarQuantizer) CodeL2Squared(a, b []byte) float32 {
	// int32 accumulation is safe to ~33k dims (96·255² ≈ 6.2e6).
	// Reslicing to the exact length lets the compiler eliminate bounds
	// checks in the unrolled loop.
	n := sq.Dim
	a = a[:n]
	b = b[:n]
	var acc0, acc1, acc2, acc3 int32
	d := 0
	for ; d+4 <= n; d += 4 {
		e0 := int32(a[d]) - int32(b[d])
		e1 := int32(a[d+1]) - int32(b[d+1])
		e2 := int32(a[d+2]) - int32(b[d+2])
		e3 := int32(a[d+3]) - int32(b[d+3])
		acc0 += e0 * e0
		acc1 += e1 * e1
		acc2 += e2 * e2
		acc3 += e3 * e3
	}
	for ; d < n; d++ {
		e := int32(a[d]) - int32(b[d])
		acc0 += e * e
	}
	return float32(acc0+acc1+acc2+acc3) * sq.Step * sq.Step
}

// Encode quantizes v into code (len Dim each).
func (sq *ScalarQuantizer) Encode(v []float32, code []byte) {
	if sq.Step == 0 {
		clear(code[:sq.Dim])
		return
	}
	for d := 0; d < sq.Dim; d++ {
		q := (v[d] - sq.Min) / sq.Step
		if q < 0 {
			q = 0
		} else if q > 255 {
			q = 255
		}
		code[d] = byte(q + 0.5)
	}
}

// Decode reconstructs code into out (len Dim each).
func (sq *ScalarQuantizer) Decode(code []byte, out []float32) {
	for d := 0; d < sq.Dim; d++ {
		out[d] = sq.Min + float32(code[d])*sq.Step
	}
}

// CodeSize returns bytes per encoded vector.
func (sq *ScalarQuantizer) CodeSize() int { return sq.Dim }

// Marshal serializes the quantizer parameters in the wire form of
// per-dimension ranges: dim u32, then Dim copies of min f32 | step f32.
func (sq *ScalarQuantizer) Marshal() []byte {
	out := make([]byte, 4+8*sq.Dim)
	binary.LittleEndian.PutUint32(out, uint32(sq.Dim))
	for d := 0; d < sq.Dim; d++ {
		binary.LittleEndian.PutUint32(out[4+8*d:], math.Float32bits(sq.Min))
		binary.LittleEndian.PutUint32(out[8+8*d:], math.Float32bits(sq.Step))
	}
	return out
}

// UnmarshalScalar deserializes quantizer parameters written by
// Marshal. Every dimension must carry the same (min, step) pair, bit
// for bit: a range that differs per dimension is no quantizer this
// package trains.
func UnmarshalScalar(data []byte) (*ScalarQuantizer, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("quant: truncated scalar quantizer header")
	}
	dim := int(binary.LittleEndian.Uint32(data))
	if dim == 0 || len(data) != 4+8*dim {
		return nil, fmt.Errorf("quant: scalar quantizer payload %d bytes for dim %d", len(data)-4, dim)
	}
	pair := data[4:12]
	for d := 1; d < dim; d++ {
		if !bytes.Equal(data[4+8*d:12+8*d], pair) {
			return nil, fmt.Errorf("quant: scalar quantizer range of dimension %d differs from dimension 0's", d)
		}
	}
	le := binary.LittleEndian
	return &ScalarQuantizer{Dim: dim, Min: math.Float32frombits(le.Uint32(pair)), Step: math.Float32frombits(le.Uint32(pair[4:]))}, nil
}
