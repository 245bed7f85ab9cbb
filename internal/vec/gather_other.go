//go:build !amd64

package vec

// gather sets out[k] from row rows[k] of data with the scalar kernel,
// whose lanes the SSE routine of gather_amd64.s reproduces bit for bit.
func gather(dot bool, q, data []float32, rows []uint32, out []float32) {
	dim := len(q)
	out = out[:len(rows)]
	for k, r := range rows {
		x := data[int(r)*dim : int(r)*dim+dim]
		if dot {
			out[k] = Dot(q, x)
		} else {
			out[k] = L2Squared(q, x)
		}
	}
}
