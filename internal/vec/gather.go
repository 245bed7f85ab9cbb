package vec

// The gathered kernels: one query (or anchor) against rows that may
// lie anywhere — a graph's neighbours, a heuristic's kept set — or
// against contiguous rows of a scan. Both keep each row's four
// scalar-kernel lanes over the whole groups of four dimensions, add
// the dim%4 tail into lane 0 and sum ((s0+s1)+s2)+s3, as L2Squared and
// Dot do, so every result is bitwise the per-row Distance (DESIGN.md
// decision 23). GatherDistances walks its whole row list in one call
// (gather: one SSE routine on amd64, rows4 elsewhere); the contiguous
// L2SquaredBatch and DotBatch run rows4, four rows per lanes4 call.

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

// rows4 sets out[k] to the squared L2 distance (with dot set, the inner
// product) from q to row k of data — row rows[k] unless rows is nil —
// four rows per lanes4 call; a short last group repeats its last row.
// It is the contiguous kernel everywhere and gather off amd64.
func rows4(dot bool, q, data []float32, dim int, rows []uint32, out []float32) {
	n := len(out)
	for k := 0; k < n; k += 4 {
		var xs [4][]float32
		for j := range xs {
			r := min(k+j, n-1)
			if rows != nil {
				r = int(rows[r])
			}
			xs[j] = data[r*dim : r*dim+dim][:len(q)]
		}
		var s [4][4]float32
		lanes4(dot, q, &xs, &s)
		o := sum4(dot, q, &xs, &s)
		copy(out[k:], o[:])
	}
}

// sum4 finishes four rows as the scalar kernels do: the dim%4 tail goes
// into lane 0, then each row's lanes add up ((s0+s1)+s2)+s3.
func sum4(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32) (out [4]float32) {
	for j, x := range xs {
		for i := len(q) &^ 3; i < len(q); i++ {
			if dot {
				s[j][0] += q[i] * x[i]
			} else {
				d := q[i] - x[i]
				s[j][0] += d * d
			}
		}
		out[j] = s[j][0] + s[j][1] + s[j][2] + s[j][3]
	}
	return out
}

// lanes4Go sets s[j][k] to what the scalar kernel's s_k accumulates for
// row xs[j] over the whole groups of four dimensions: lanes4 off
// amd64, its test reference on it.
func lanes4Go(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32) {
	n := len(q) &^ 3
	q = q[:n]
	for j, x := range xs {
		x = x[:n]
		var s0, s1, s2, s3 float32
		for i := 0; i < n; i += 4 {
			if dot {
				s0 += q[i] * x[i]
				s1 += q[i+1] * x[i+1]
				s2 += q[i+2] * x[i+2]
				s3 += q[i+3] * x[i+3]
			} else {
				d0, d1, d2, d3 := q[i]-x[i], q[i+1]-x[i+1], q[i+2]-x[i+2], q[i+3]-x[i+3]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
		}
		s[j] = [4]float32{s0, s1, s2, s3}
	}
}
