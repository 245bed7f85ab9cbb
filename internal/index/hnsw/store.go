package hnsw

import (
	"fmt"
	"slices"

	"blendhouse/internal/quant"
	"blendhouse/internal/vec"
)

// store abstracts the vector payload behind the graph so HNSW and
// HNSWSQ share all traversal code. Implementations are append-only;
// node i's payload is the i-th add.
//
// Distances are measured from an anchor — a query or a stored node —
// that the store prepares once, in batches: the float store scores a
// batch four rows at a time on vec's gathered kernel, and the SQ store
// encodes a query once and runs its integer kernels for the whole
// traversal (hnswlib does the same), which is where HNSWSQ's speed
// advantage comes from.
type store interface {
	// grow reserves room for n further adds.
	grow(n int)
	add(v []float32)
	// query and node set a to external query q, or to stored node i.
	query(a *anchor, q []float32)
	node(a *anchor, i int)
	// dists sets out[k] to the distance from a to stored node nodes[k].
	dists(a *anchor, nodes []uint32, out []float32)
	count() int
	memoryBytes() int64
	needsTrain() bool
	trained() bool
	train(sample []float32) error
}

// anchor is the point a batch of distances is measured from, in the
// form the store's kernel takes it. It borrows the query or the stored
// node it was set to; buf and dec are its own.
type anchor struct {
	v    []float32      // float store: the point
	code []byte         // SQ: the point's code
	sym  quant.SymQuery // ... with IP and cosine: its expansion terms
	buf  []byte         // SQ: an encoded query
	dec  []float32      // SQ: a decoded node
}

// floatStore keeps raw float32 vectors (classic HNSW).
type floatStore struct {
	dim    int
	metric vec.Metric
	data   []float32
}

func newFloatStore(dim int, m vec.Metric) *floatStore {
	return &floatStore{dim: dim, metric: m}
}

func (s *floatStore) grow(n int)      { s.data = slices.Grow(s.data, n*s.dim) }
func (s *floatStore) add(v []float32) { s.data = append(s.data, v...) }

func (s *floatStore) query(a *anchor, q []float32) { a.v = q }
func (s *floatStore) node(a *anchor, i int)        { a.v = s.data[i*s.dim : i*s.dim+s.dim] }

func (s *floatStore) dists(a *anchor, nodes []uint32, out []float32) {
	vec.GatherDistances(s.metric, a.v, s.data, nodes, out)
}

func (s *floatStore) count() int            { return len(s.data) / s.dim }
func (s *floatStore) memoryBytes() int64    { return int64(4 * cap(s.data)) }
func (s *floatStore) needsTrain() bool      { return false }
func (s *floatStore) trained() bool         { return true }
func (s *floatStore) train([]float32) error { return nil }

// sqStore keeps SQ8 codes — 1 byte per dimension (HNSWSQ), quantized
// over one range so code-to-code L2 is an integer kernel. Queries are
// encoded once per search. Per-node code sums (Σc, Σc²) are maintained
// at add time so IP and cosine reduce each node visit to one integer
// dot product — search never decodes a node back to float32 on any
// metric.
type sqStore struct {
	dim    int
	metric vec.Metric
	sq     *quant.ScalarQuantizer
	exact  bool // every code decodes and encodes back to itself
	codes  []byte
	sums   []int32 // Σ code[d] per node
	sumSqs []int32 // Σ code[d]² per node
}

func newSQStore(dim int, m vec.Metric) *sqStore {
	return &sqStore{dim: dim, metric: m}
}

func (s *sqStore) grow(n int) {
	s.codes = slices.Grow(s.codes, n*s.dim)
	s.sums = slices.Grow(s.sums, n)
	s.sumSqs = slices.Grow(s.sumSqs, n)
}

func (s *sqStore) add(v []float32) {
	if s.sq == nil {
		panic("hnsw: sqStore.add before training")
	}
	off := len(s.codes)
	s.codes = append(s.codes, make([]byte, s.dim)...)
	code := s.codes[off : off+s.dim]
	s.sq.Encode(v, code)
	sum, sumSq := quant.CodeStats(code)
	s.sums = append(s.sums, sum)
	s.sumSqs = append(s.sumSqs, sumSq)
}

func (s *sqStore) code(i int) []byte { return s.codes[i*s.dim : i*s.dim+s.dim] }

// rebuildStats recomputes the per-node code sums from raw codes —
// called after deserialization, which persists only the codes.
func (s *sqStore) rebuildStats() {
	n := s.count()
	s.sums = make([]int32, n)
	s.sumSqs = make([]int32, n)
	for i := 0; i < n; i++ {
		s.sums[i], s.sumSqs[i] = quant.CodeStats(s.code(i))
	}
}

// use installs the quantizer and notes whether every code survives
// Decode then Encode. A code may not where Min lies far from zero
// against Step: float32 cannot hold Min + c·Step finely enough. One
// dimension answers for all, since they share the range.
func (s *sqStore) use(sq *quant.ScalarQuantizer) {
	s.sq, s.exact = sq, true
	one := quant.ScalarQuantizer{Dim: 1, Min: sq.Min, Step: sq.Step}
	var v [1]float32
	var c, back [1]byte
	for k := 0; k < 256 && s.exact; k++ {
		c[0] = byte(k)
		one.Decode(c[:], v[:])
		one.Encode(v[:], back[:])
		s.exact = back == c
	}
}

// query encodes q once for the integer kernels, with the symmetric
// expansion terms for IP and cosine.
func (s *sqStore) query(a *anchor, q []float32) {
	a.buf = slices.Grow(a.buf[:0], s.dim)[:s.dim]
	s.sq.Encode(q, a.buf)
	a.code = a.buf
	if s.metric != vec.L2 {
		sum, sumSq := quant.CodeStats(a.buf)
		s.sq.SetSymCode(&a.sym, a.buf, sum, sumSq)
	}
}

// node anchors at node i. L2 runs code to code. IP and cosine anchor at
// i decoded and queried, which is the stored code — and its stored sums
// — when the round trip is exact.
func (s *sqStore) node(a *anchor, i int) {
	switch {
	case s.metric == vec.L2:
		a.code = s.code(i)
	case s.exact:
		a.code = s.code(i)
		s.sq.SetSymCode(&a.sym, a.code, s.sums[i], s.sumSqs[i])
	default:
		a.dec = slices.Grow(a.dec[:0], s.dim)[:s.dim]
		s.sq.Decode(s.code(i), a.dec)
		s.query(a, a.dec)
	}
}

func (s *sqStore) dists(a *anchor, nodes []uint32, out []float32) {
	for k, nb := range nodes {
		i := int(nb)
		c := s.code(i)
		switch {
		case s.metric == vec.L2:
			out[k] = s.sq.CodeL2Squared(a.code, c)
		case s.metric == vec.InnerProduct:
			out[k] = -a.sym.DotDecoded(c, s.sums[i])
		default:
			out[k] = a.sym.CosineDecoded(c, s.sums[i], s.sumSqs[i])
		}
	}
}

func (s *sqStore) count() int {
	if s.dim == 0 {
		return 0
	}
	return len(s.codes) / s.dim
}

func (s *sqStore) memoryBytes() int64 {
	n := int64(cap(s.codes))
	n += int64(4 * (cap(s.sums) + cap(s.sumSqs))) // per-node Σc / Σc² fast-path tables
	if s.sq != nil {
		n += int64(8 * s.dim) // the saved min/step pairs
	}
	return n
}

func (s *sqStore) needsTrain() bool { return true }
func (s *sqStore) trained() bool    { return s.sq != nil }

func (s *sqStore) train(sample []float32) error {
	if len(sample) == 0 {
		return fmt.Errorf("hnsw: empty SQ training sample")
	}
	sq, err := quant.TrainScalar(sample, s.dim)
	if err != nil {
		return err
	}
	s.use(sq)
	return nil
}
