package vec

// lanes4 is lanes4Go in SSE (gather_amd64.s): one xmm accumulator per
// row whose lane k is the scalar kernel's s_k. SUBPS, MULPS and ADDPS
// round each lane exactly as SUBSS, MULSS and ADDSS round the scalar
// loop, and nothing is fused. Every row must hold len(q) floats.
//
//go:noescape
func lanes4(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32)
