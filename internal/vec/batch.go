package vec

// Blocked distance kernels: every brute-force scan path (flat index,
// exec plan A, IVF coarse probe, k-means assignment, PQ table build)
// computes distances from ONE query to MANY contiguous rows.
// L2SquaredBatch and DotBatch gather them through the kernel of
// gather.go, 256 rows per call; the threshold kernels process rows in
// pairs that share the query-element loads, with exact reslicing for
// bounds-check elimination. Each row keeps the same 4-accumulator lane
// pattern as the scalar kernels in vec.go, which makes the results
// bitwise identical to a per-row L2Squared/Dot/CosineDistance loop —
// callers can adopt the blocked kernels without changing a single
// query result.
//
// The *Threshold variants additionally abandon rows early: squared-L2
// partial sums only accumulate non-negative terms, so once a row's
// partial exceeds the caller's threshold (the current top-k worst, or
// a range radius) its final distance cannot be accepted and the rest
// of the dimensions are skipped. Abandoned entries hold their partial
// sum, which is guaranteed > thr, so a (Dist, ID)-ordered top-k heap
// rejects them; rows that are not abandoned run the full identical
// loop and stay bitwise exact.

// abandonStride is the number of dimensions between threshold checks
// in the early-abandoning L2 kernels. Small enough to cut most of a
// 96-dim row once the heap is warm, large enough that the compare is
// amortized over four unrolled iterations.
const abandonStride = 16

// L2SquaredBatch computes out[r] = L2Squared(q, data[r*dim:(r+1)*dim])
// for every r in [0, len(out)), where dim == len(q). Results are
// bitwise identical to the per-row scalar kernel.
func L2SquaredBatch(q, data []float32, dim int, out []float32) {
	contiguous(false, q, data, dim, out)
}

// seq lists rows 0..255: the row list a contiguous chunk is gathered by.
var seq = func() (rows [256]uint32) {
	for i := range rows {
		rows[i] = uint32(i)
	}
	return rows
}()

// contiguous runs gather over rows 0..len(out)-1 of data, one call per
// chunk of up to len(seq) rows. gather strides rows by len(q), so a
// dim that differs is a caller bug, not a stride.
func contiguous(dot bool, q, data []float32, dim int, out []float32) {
	if dim != len(q) {
		panic("vec: batch kernel dim != len(q)")
	}
	for off := 0; off < len(out); off += len(seq) {
		n := min(len(out)-off, len(seq))
		gather(dot, q, data[off*dim:], seq[:n], out[off:off+n])
	}
}

// L2SquaredBatchThreshold is L2SquaredBatch with early abandonment:
// a row whose partial sum exceeds thr may be left holding that partial
// (still strictly > thr) instead of its full distance. Rows that are
// not abandoned are bitwise identical to L2Squared. Pass
// math.MaxFloat32 to disable abandonment.
func L2SquaredBatchThreshold(q, data []float32, dim int, out []float32, thr float32) {
	rows := len(out)
	r := 0
	for ; r+2 <= rows; r += 2 {
		l2PairThreshold(q, data[r*dim:(r+1)*dim], data[(r+1)*dim:(r+2)*dim], out[r:r+2:r+2], thr)
	}
	if r < rows {
		out[r] = L2SquaredThreshold(q, data[r*dim:r*dim+dim], thr)
	}
}

func l2PairThreshold(q, x, y []float32, out []float32, thr float32) {
	n := len(q)
	x = x[:n]
	y = y[:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	i := 0
	for i+abandonStride <= n {
		lim := i + abandonStride
		for ; i < lim; i += 4 {
			q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
			dx0 := q0 - x[i]
			dx1 := q1 - x[i+1]
			dx2 := q2 - x[i+2]
			dx3 := q3 - x[i+3]
			a0 += dx0 * dx0
			a1 += dx1 * dx1
			a2 += dx2 * dx2
			a3 += dx3 * dx3
			dy0 := q0 - y[i]
			dy1 := q1 - y[i+1]
			dy2 := q2 - y[i+2]
			dy3 := q3 - y[i+3]
			b0 += dy0 * dy0
			b1 += dy1 * dy1
			b2 += dy2 * dy2
			b3 += dy3 * dy3
		}
		// Partial sums are monotone under float addition of
		// non-negative terms, so a partial > thr bounds the final
		// distance from below. When one row of the pair is out, the
		// survivor continues alone — its accumulators carry over, so
		// the op sequence (and result) stays bitwise identical to the
		// full pair loop.
		aOut := a0+a1+a2+a3 > thr
		bOut := b0+b1+b2+b3 > thr
		if aOut || bOut {
			if aOut && bOut {
				out[0] = a0 + a1 + a2 + a3
				out[1] = b0 + b1 + b2 + b3
				return
			}
			if aOut {
				out[0] = a0 + a1 + a2 + a3
				out[1] = l2Resume(q, y, i, b0, b1, b2, b3, thr)
				return
			}
			out[1] = b0 + b1 + b2 + b3
			out[0] = l2Resume(q, x, i, a0, a1, a2, a3, thr)
			return
		}
	}
	for ; i+4 <= n; i += 4 {
		q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
		dx0 := q0 - x[i]
		dx1 := q1 - x[i+1]
		dx2 := q2 - x[i+2]
		dx3 := q3 - x[i+3]
		a0 += dx0 * dx0
		a1 += dx1 * dx1
		a2 += dx2 * dx2
		a3 += dx3 * dx3
		dy0 := q0 - y[i]
		dy1 := q1 - y[i+1]
		dy2 := q2 - y[i+2]
		dy3 := q3 - y[i+3]
		b0 += dy0 * dy0
		b1 += dy1 * dy1
		b2 += dy2 * dy2
		b3 += dy3 * dy3
	}
	for ; i < n; i++ {
		qv := q[i]
		dx := qv - x[i]
		a0 += dx * dx
		dy := qv - y[i]
		b0 += dy * dy
	}
	out[0] = a0 + a1 + a2 + a3
	out[1] = b0 + b1 + b2 + b3
}

// l2Resume continues one row of an l2PairThreshold call from
// dimension i after its partner abandoned, inheriting the pair
// kernel's live accumulators. The op sequence on s0..s3 is exactly
// what the pair loop would have executed for this row, so a row that
// is never abandoned stays bitwise identical to L2Squared.
func l2Resume(q, x []float32, i int, s0, s1, s2, s3, thr float32) float32 {
	n := len(q)
	x = x[:n]
	for i+abandonStride <= n {
		lim := i + abandonStride
		for ; i < lim; i += 4 {
			d0 := q[i] - x[i]
			d1 := q[i+1] - x[i+1]
			d2 := q[i+2] - x[i+2]
			d3 := q[i+3] - x[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if s := s0 + s1 + s2 + s3; s > thr {
			return s
		}
	}
	for ; i+4 <= n; i += 4 {
		d0 := q[i] - x[i]
		d1 := q[i+1] - x[i+1]
		d2 := q[i+2] - x[i+2]
		d3 := q[i+3] - x[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := q[i] - x[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// L2SquaredThreshold is the single-row early-abandoning kernel, used
// by filtered scans that cannot process contiguous pairs. The returned
// value is the exact L2Squared(a, b) unless it exceeds thr, in which
// case it may be a partial sum that is still strictly > thr.
func L2SquaredThreshold(a, b []float32, thr float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for i+abandonStride <= n {
		lim := i + abandonStride
		for ; i < lim; i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if s := s0 + s1 + s2 + s3; s > thr {
			return s
		}
	}
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// DotBatch computes out[r] = Dot(q, data[r*dim:(r+1)*dim]) for every
// r in [0, len(out)), where dim == len(q), bitwise identical to the
// scalar kernel.
func DotBatch(q, data []float32, dim int, out []float32) {
	contiguous(true, q, data, dim, out)
}

// dotNorm computes Dot(a, b) and Dot(b, b) in one pass over b, each
// bitwise identical to the scalar Dot kernel.
func dotNorm(a, b []float32) (dot, norm float32) {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	var t0, t1, t2, t3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		s0 += a[i] * b0
		s1 += a[i+1] * b1
		s2 += a[i+2] * b2
		s3 += a[i+3] * b3
		t0 += b0 * b0
		t1 += b1 * b1
		t2 += b2 * b2
		t3 += b3 * b3
	}
	for ; i < n; i++ {
		bv := b[i]
		s0 += a[i] * bv
		t0 += bv * bv
	}
	return s0 + s1 + s2 + s3, t0 + t1 + t2 + t3
}

// CosineBatch computes out[r] = CosineDistance(q, row r), computing
// the query norm once per call and fusing each row's dot product and
// norm into a single pass — bitwise identical to the scalar kernel.
func CosineBatch(q, data []float32, dim int, out []float32) {
	na := Dot(q, q)
	for r := range out {
		dot, nb := dotNorm(q, data[r*dim:r*dim+dim])
		out[r] = cosine(dot, na, nb)
	}
}
