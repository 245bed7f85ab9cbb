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
// Distances are exposed as closures anchored at a query vector or at a
// stored node: this lets the SQ store encode a query once and run
// pure-integer kernels for the whole traversal (hnswlib does the
// same), which is where HNSWSQ's speed advantage comes from.
type store interface {
	// grow reserves room for n further adds.
	grow(n int)
	add(v []float32)
	// queryDist returns a distance function from external query q to
	// stored nodes. The closure must be safe for use by one goroutine;
	// concurrent searches each obtain their own.
	queryDist(q []float32) func(i int) float32
	// nodeDist returns a distance function anchored at stored node i.
	nodeDist(i int) func(j int) float32
	// pairDist is a one-off distance between two stored nodes.
	pairDist(i, j int) float32
	count() int
	memoryBytes() int64
	needsTrain() bool
	trained() bool
	train(sample []float32) error
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

func (s *floatStore) row(i int) []float32 { return s.data[i*s.dim : i*s.dim+s.dim] }

func (s *floatStore) queryDist(q []float32) func(int) float32 {
	return func(i int) float32 { return vec.Distance(s.metric, q, s.row(i)) }
}

func (s *floatStore) nodeDist(i int) func(int) float32 {
	base := s.row(i)
	return func(j int) float32 { return vec.Distance(s.metric, base, s.row(j)) }
}

func (s *floatStore) pairDist(i, j int) float32 {
	return vec.Distance(s.metric, s.row(i), s.row(j))
}

func (s *floatStore) count() int            { return len(s.data) / s.dim }
func (s *floatStore) memoryBytes() int64    { return int64(4 * cap(s.data)) }
func (s *floatStore) needsTrain() bool      { return false }
func (s *floatStore) trained() bool         { return true }
func (s *floatStore) train([]float32) error { return nil }

// sqStore keeps SQ8 codes — 1 byte per dimension (HNSWSQ), quantized
// uniformly so code-to-code L2 is an integer kernel. Queries are
// encoded once per search. Per-node code sums (Σc, Σc²) are maintained
// at add time so the uniform IP/Cosine fast paths reduce each node
// visit to one integer dot product — search never decodes a node back
// to float32 on any metric.
type sqStore struct {
	dim    int
	metric vec.Metric
	sq     *quant.ScalarQuantizer
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

func (s *sqStore) queryDist(q []float32) func(int) float32 {
	switch s.metric {
	case vec.InnerProduct:
		if sym, ok := s.sq.NewSymQuery(q); ok {
			return func(i int) float32 { return -sym.DotDecoded(s.code(i), s.sums[i]) }
		}
		w, bias := s.sq.DotTable(q)
		return func(i int) float32 { return -quant.DotWithTable(w, bias, s.code(i)) }
	case vec.Cosine:
		if sym, ok := s.sq.NewSymQuery(q); ok {
			return func(i int) float32 { return sym.CosineDecoded(s.code(i), s.sums[i], s.sumSqs[i]) }
		}
		qn := vec.Dot(q, q)
		return func(i int) float32 { return s.sq.CosineToCode(q, s.code(i), qn) }
	default:
		// Encode the query once; traversal runs on the integer kernel.
		qc := make([]byte, s.dim)
		s.sq.Encode(q, qc)
		return func(i int) float32 { return s.sq.CodeL2Squared(qc, s.code(i)) }
	}
}

func (s *sqStore) nodeDist(i int) func(int) float32 {
	switch s.metric {
	case vec.L2:
		base := s.code(i)
		return func(j int) float32 { return s.sq.CodeL2Squared(base, s.code(j)) }
	default:
		decoded := make([]float32, s.dim)
		s.sq.Decode(s.code(i), decoded)
		return s.queryDist(decoded)
	}
}

func (s *sqStore) pairDist(i, j int) float32 {
	if s.metric == vec.L2 {
		return s.sq.CodeL2Squared(s.code(i), s.code(j))
	}
	decoded := make([]float32, s.dim)
	s.sq.Decode(s.code(i), decoded)
	return s.queryDist(decoded)(j)
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
		n += int64(8 * s.dim) // min/step tables
	}
	return n
}

func (s *sqStore) needsTrain() bool { return true }
func (s *sqStore) trained() bool    { return s.sq != nil }

func (s *sqStore) train(sample []float32) error {
	if len(sample) == 0 {
		return fmt.Errorf("hnsw: empty SQ training sample")
	}
	sq, err := quant.TrainScalarUniform(sample, s.dim)
	if err != nil {
		return err
	}
	s.sq = sq
	return nil
}
