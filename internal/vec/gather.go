package vec

// The gathered kernels: one query (or anchor) against rows that may
// lie anywhere — a graph's neighbours, a heuristic's kept set — or
// against contiguous rows of a scan. Both keep each row's four
// scalar-kernel lanes over the whole groups of four dimensions, add
// the dim%4 tail into lane 0 and sum ((s0+s1)+s2)+s3, as L2Squared and
// Dot do, so every result is bitwise the per-row Distance (DESIGN.md
// decision 23). Both run gather: one SSE routine on amd64
// (gather_amd64.s), the scalar kernels row by row elsewhere.
// GatherDistances hands it its whole row list in one call; the
// contiguous L2SquaredBatch and DotBatch, each 256-row chunk.

// GatherDistances computes out[k] = Distance(m, q, row rows[k] of
// data) for every k in [0, len(rows)), where row r is
// data[r·len(q) : (r+1)·len(q)]; bitwise identical to Distance.
func GatherDistances(m Metric, q, data []float32, rows []uint32, out []float32) {
	dim := len(q)
	out = out[:len(rows)]
	switch m {
	case L2:
		gather(false, q, data, rows, out)
	case InnerProduct:
		gather(true, q, data, rows, out)
		for k := range out {
			out[k] = -out[k]
		}
	case Cosine:
		// One pass per row for its dot product and norm, as CosineBatch.
		na := Dot(q, q)
		for k, r := range rows {
			dot, nb := dotNorm(q, data[int(r)*dim:int(r)*dim+dim])
			out[k] = cosine(dot, na, nb)
		}
	default:
		panic("vec: invalid metric")
	}
}
