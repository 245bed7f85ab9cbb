package quant

import "math"

// Query-side fast paths for SQ8 search. L2 runs on the integer code
// kernel (encode the query once, CodeL2Squared per node); the types
// here extend the same trick to InnerProduct and Cosine, so SQ-backed
// search never widens codes back to float32. Since
// decode(c)_d = min + c_d·step,
//
//	dot(decode(a), decode(b)) = dim·min² + min·step·(Σa + Σb) + step²·(a·b)
//	|decode(c)|²              = dim·min² + 2·min·step·Σc + step²·Σc²
//
// With the per-code sums Σc and Σc² precomputed at encode time (see
// CodeStats) the per-node work collapses to ONE integer dot product
// plus O(1) float math — the same shape as the L2 kernel. The query is
// itself encoded once per search, which quantizes it exactly like the
// L2 path does (recall-equivalent, not bitwise).

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
// the dot/norm expansion, precomputed once at add time.
func CodeStats(code []byte) (sum, sumSq int32) {
	for _, c := range code {
		v := int32(c)
		sum += v
		sumSq += v * v
	}
	return sum, sumSq
}

// SymQuery holds the query-side terms of the symmetric integer fast
// path: the encoded query plus the scalar expansion coefficients. Set
// it with SetSymCode.
type SymQuery struct {
	qc      []byte
	qSum    int32
	c0      float64 // dim·min²
	c1      float64 // min·step
	c2      float64 // step²
	qNormSq float64 // |decode(qc)|²
}

// SetSymCode makes s the symmetric query of a point that is already a
// code — an encoded query, or a stored code, which s then borrows —
// given the code's CodeStats.
func (sq *ScalarQuantizer) SetSymCode(s *SymQuery, qc []byte, sum, sumSq int32) {
	mn := float64(sq.Min)
	step := float64(sq.Step)
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
