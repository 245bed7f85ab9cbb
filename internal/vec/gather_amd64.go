package vec

import "slices"

// gather sets out[k] from row rows[k] of data in one SSE call
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
