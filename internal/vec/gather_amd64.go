package vec

import "slices"

// gather is GatherDistances' kernel: rows4 over rows in one SSE call
// (gather_amd64.s), bitwise — SUBPS, MULPS and ADDPS round each lane
// as the scalar loop's SUBSS, MULSS and ADDSS do, and nothing is
// fused. The assembly reads unchecked, so the farthest row it will
// read is sliced here first, once per call.
func gather(dot bool, q, data []float32, rows []uint32, out []float32) {
	if len(rows) == 0 {
		return
	}
	last := int(slices.Max(rows)) * len(q)
	_ = data[last : last+len(q)]
	gatherSSE(dot, q, data, rows, out[:len(rows)])
}

// gatherSSE sets out[k] from row rows[k] of data for every k.
//
//go:noescape
func gatherSSE(dot bool, q, data []float32, rows []uint32, out []float32)

// lanes4 is lanes4Go in SSE (gather_amd64.s): one xmm accumulator per
// row whose lane k is the scalar kernel's s_k, rounded as gather's
// are. It runs rows4, the contiguous kernel of L2SquaredBatch and
// DotBatch. Every row must hold len(q) floats.
//
//go:noescape
func lanes4(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32)
