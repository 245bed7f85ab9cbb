package quant

import "math"

// Query-side fast paths for SQ8 search. The L2 path has always run on
// the integer code kernel (encode the query once, CodeL2Squared per
// node); the types here extend the same trick to InnerProduct and
// Cosine so SQ-backed search never widens codes back to float32:
//
// For a UNIFORM quantizer, decode(c)_d = min + c_d·step, so
//
//	dot(decode(a), decode(b)) = dim·min² + min·step·(Σa + Σb) + step²·(a·b)
//	|decode(c)|²              = dim·min² + 2·min·step·Σc + step²·Σc²
//
// With the per-code sums Σc and Σc² precomputed at encode time (see
// CodeStats) the per-node work collapses to ONE integer dot product
// plus O(1) float math — the same shape as the L2 fast path. The
// query is itself encoded once per search, which quantizes it exactly
// like the L2 path already does (recall-equivalent, not bitwise).
//
// Non-uniform quantizers get a cheaper float path instead: the
// query-side scale/offset products w_d = q_d·step_d and
// bias = Σ q_d·min_d are precomputed once per search, so the per-node
// loop is one multiply-add per dimension instead of the two multiplies
// and two adds of the naive DotToCode.

// CodeDot returns the integer inner product of two codes of equal
// length. int32 accumulation is safe to ~33k dims (like CodeL2Squared).
func CodeDot(a, b []byte) int32 {
	n := len(a)
	b = b[:n]
	var acc0, acc1, acc2, acc3 int32
	d := 0
	for ; d+4 <= n; d += 4 {
		acc0 += int32(a[d]) * int32(b[d])
		acc1 += int32(a[d+1]) * int32(b[d+1])
		acc2 += int32(a[d+2]) * int32(b[d+2])
		acc3 += int32(a[d+3]) * int32(b[d+3])
	}
	for ; d < n; d++ {
		acc0 += int32(a[d]) * int32(b[d])
	}
	return acc0 + acc1 + acc2 + acc3
}

// CodeStats returns Σc_d and Σc_d² for a code — the per-node terms of
// the uniform dot/norm expansion, precomputed once at add time.
func CodeStats(code []byte) (sum, sumSq int32) {
	for _, c := range code {
		v := int32(c)
		sum += v
		sumSq += v * v
	}
	return sum, sumSq
}

// SymQuery holds the query-side terms of the uniform (symmetric)
// integer fast path: the encoded query plus the scalar expansion
// coefficients. Valid only for uniform quantizers — construct via
// NewSymQuery.
type SymQuery struct {
	qc      []byte
	qSum    int32
	c0      float64 // dim·min²
	c1      float64 // min·step
	c2      float64 // step²
	qNormSq float64 // |decode(qc)|²
}

// NewSymQuery encodes q once and precomputes the expansion terms.
// Returns ok=false for non-uniform quantizers, which should fall back
// to the DotTable/CosineToCode float paths.
func (sq *ScalarQuantizer) NewSymQuery(q []float32) (*SymQuery, bool) {
	if !sq.Uniform || sq.Dim == 0 {
		return nil, false
	}
	qc := make([]byte, sq.Dim)
	sq.Encode(q, qc)
	s := new(SymQuery)
	sum, sumSq := CodeStats(qc)
	sq.SetSymCode(s, qc, sum, sumSq)
	return s, true
}

// SetSymCode makes s the symmetric query of a point that is already a
// code — an encoded query, or a stored code, which s then borrows —
// given the code's CodeStats. Valid only for uniform quantizers.
func (sq *ScalarQuantizer) SetSymCode(s *SymQuery, qc []byte, sum, sumSq int32) {
	mn := float64(sq.Min[0])
	step := float64(sq.Step[0])
	*s = SymQuery{qc: qc, qSum: sum, c0: float64(sq.Dim) * mn * mn, c1: mn * step, c2: step * step}
	s.qNormSq = s.c0 + 2*s.c1*float64(sum) + s.c2*float64(sumSq)
}

// DotDecoded returns dot(decode(qc), decode(code)) given the code's
// precomputed Σc — one integer dot product plus O(1) float math.
func (s *SymQuery) DotDecoded(code []byte, codeSum int32) float32 {
	return float32(s.c0 + s.c1*float64(s.qSum+codeSum) + s.c2*float64(CodeDot(s.qc, code)))
}

// CosineDecoded returns the cosine distance between the decoded query
// and decode(code) given the code's precomputed Σc and Σc². Zero-norm
// vectors follow vec.CosineDistance's "maximally distant" convention.
func (s *SymQuery) CosineDecoded(code []byte, codeSum, codeSumSq int32) float32 {
	nb := s.c0 + 2*s.c1*float64(codeSum) + s.c2*float64(codeSumSq)
	if s.qNormSq <= 0 || nb <= 0 {
		return 1
	}
	dot := s.c0 + s.c1*float64(s.qSum+codeSum) + s.c2*float64(CodeDot(s.qc, code))
	return float32(1 - dot/math.Sqrt(s.qNormSq*nb))
}

// DotTable precomputes the query-side products of the non-uniform dot
// path: w[d] = q[d]·Step[d] and bias = Σ q[d]·Min[d], so that
// dot(q, decode(code)) = bias + Σ w[d]·code[d].
func (sq *ScalarQuantizer) DotTable(q []float32) (w []float32, bias float32) {
	w = make([]float32, sq.Dim)
	for d := 0; d < sq.Dim; d++ {
		w[d] = q[d] * sq.Step[d]
		bias += q[d] * sq.Min[d]
	}
	return w, bias
}

// DotWithTable evaluates the precomputed dot path against one code:
// one multiply-add per dimension, 4-way unrolled.
func DotWithTable(w []float32, bias float32, code []byte) float32 {
	n := len(w)
	code = code[:n]
	var s0, s1, s2, s3 float32
	d := 0
	for ; d+4 <= n; d += 4 {
		s0 += w[d] * float32(code[d])
		s1 += w[d+1] * float32(code[d+1])
		s2 += w[d+2] * float32(code[d+2])
		s3 += w[d+3] * float32(code[d+3])
	}
	for ; d < n; d++ {
		s0 += w[d] * float32(code[d])
	}
	return bias + (s0 + s1 + s2 + s3)
}

// CosineToCode computes the cosine distance between full-precision q
// and decode(code) in ONE pass over the code — no decode buffer, no
// re-reading the reconstruction for the norm. qNormSq is Dot(q, q),
// computed once per search by the caller.
func (sq *ScalarQuantizer) CosineToCode(q []float32, code []byte, qNormSq float32) float32 {
	var dot, nb float32
	for d := 0; d < sq.Dim; d++ {
		v := sq.Min[d] + float32(code[d])*sq.Step[d]
		dot += q[d] * v
		nb += v * v
	}
	if qNormSq == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/float32(math.Sqrt(float64(qNormSq)*float64(nb)))
}
