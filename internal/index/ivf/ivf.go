// Package ivf implements the inverted-file index family: IVFFLAT (raw
// vectors in posting lists), IVFPQ (8-bit product-quantized codes with
// asymmetric distance computation), and IVFPQFS (4-bit fast-scan-style
// PQ) — the paper's BH-IVFPQFS of Tables V/VI and the IVF{K_IVF},PQ64x4fs
// family of Figure 7.
//
// Vectors are assigned to the nearest of Nlist coarse centroids
// (K_IVF) learned by k-means; queries probe the Nprobe nearest lists.
// Quantized variants optionally re-rank the σ·k best ADC candidates
// with exact distances supplied by a RawProvider (the engine wires
// this to the segment's vector column), which is the "refine" stage
// charged σ·k·c_d by the cost model.
package ivf

import (
	"fmt"
	"sort"
	"sync"

	"blendhouse/internal/index"
	"blendhouse/internal/kmeans"
	"blendhouse/internal/quant"
	"blendhouse/internal/vec"
)

func init() {
	index.Register(index.IVFFlat, func(p index.BuildParams) (index.Index, error) {
		return New(p, VariantFlat)
	})
	index.Register(index.IVFPQ, func(p index.BuildParams) (index.Index, error) {
		return New(p, VariantPQ)
	})
	index.Register(index.IVFPQFS, func(p index.BuildParams) (index.Index, error) {
		return New(p, VariantPQFS)
	})
}

// Variant selects the posting-list payload encoding.
type Variant uint8

// The three IVF payloads.
const (
	VariantFlat Variant = iota // raw float32 vectors
	VariantPQ                  // 8-bit PQ codes
	VariantPQFS                // 4-bit PQ codes (fast-scan layout)
)

// RawProvider fetches the exact vector for an ID into out, returning
// false when unavailable. Engines set it to enable the refine stage.
// It is a type alias (not a defined type) so SetRawProvider satisfies
// the engine's structural rawRefiner interface.
type RawProvider = func(id int64, out []float32) bool

// list is one inverted list: parallel ids and payload (vectors or
// codes).
type list struct {
	ids  []int64
	data []float32 // VariantFlat
	code []byte    // VariantPQ / VariantPQFS
}

// Index is an IVF index.
type Index struct {
	params  index.BuildParams
	variant Variant

	mu     sync.RWMutex
	cents  *vec.Matrix
	pq     *quant.ProductQuantizer
	lists  []list
	count  int
	refine RawProvider
}

// New constructs an empty IVF index of the given variant.
func New(p index.BuildParams, v Variant) (*Index, error) {
	if p.Dim <= 0 {
		return nil, fmt.Errorf("ivf: dimension must be positive, got %d", p.Dim)
	}
	if v == VariantPQ || v == VariantPQFS {
		if p.PQM <= 0 || p.Dim%p.PQM != 0 {
			return nil, fmt.Errorf("ivf: PQ_M %d must divide dim %d", p.PQM, p.Dim)
		}
	}
	return &Index{params: p, variant: v}, nil
}

// SetRawProvider enables exact-distance refinement for quantized
// variants. Safe to call once before serving queries.
func (ix *Index) SetRawProvider(fn RawProvider) {
	ix.mu.Lock()
	ix.refine = fn
	ix.mu.Unlock()
}

// Type returns the concrete index type.
func (ix *Index) Type() index.Type {
	switch ix.variant {
	case VariantPQ:
		return index.IVFPQ
	case VariantPQFS:
		return index.IVFPQFS
	default:
		return index.IVFFlat
	}
}

// Dim returns the vector dimension.
func (ix *Index) Dim() int { return ix.params.Dim }

// Count returns the number of indexed vectors.
func (ix *Index) Count() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// NeedsTrain reports true: IVF always requires coarse centroids.
func (ix *Index) NeedsTrain() bool { return true }

// Trained reports whether centroids (and codebooks) exist.
func (ix *Index) Trained() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.trainedLocked()
}

func (ix *Index) trainedLocked() bool {
	if ix.cents == nil {
		return false
	}
	if ix.variant != VariantFlat && ix.pq == nil {
		return false
	}
	return true
}

// Train learns the coarse centroids and, for quantized variants, the
// PQ codebooks from the sample.
func (ix *Index) Train(sample []float32) error {
	dim := ix.params.Dim
	if len(sample) == 0 || len(sample)%dim != 0 {
		return fmt.Errorf("ivf: training sample length %d not a multiple of dim %d", len(sample), dim)
	}
	mat := &vec.Matrix{Dim: dim, Data: sample}
	res, err := kmeans.Train(mat, kmeans.Config{K: ix.params.Nlist, Seed: ix.params.Seed, MaxIters: 10})
	if err != nil {
		return fmt.Errorf("ivf: coarse quantizer training: %w", err)
	}
	var pq *quant.ProductQuantizer
	if ix.variant != VariantFlat {
		nbits := ix.params.PQNbits
		if ix.variant == VariantPQFS {
			nbits = 4
		}
		pq, err = quant.TrainPQ(sample, dim, ix.params.PQM, nbits, ix.params.Seed+7)
		if err != nil {
			return fmt.Errorf("ivf: PQ training: %w", err)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.cents = res.Centroids
	ix.pq = pq
	ix.lists = make([]list, ix.params.Nlist)
	return nil
}

// AddWithIDs routes vectors to their nearest list. If the index has
// not been trained, the first batch doubles as the training sample
// (matching the auto-index ingestion path where a fresh segment's
// rows train its own per-segment index).
func (ix *Index) AddWithIDs(vecs []float32, ids []int64) error {
	if err := index.ValidateAdd(ix.params.Dim, vecs, ids); err != nil {
		return err
	}
	if !ix.Trained() {
		if err := ix.Train(vecs); err != nil {
			return fmt.Errorf("ivf: implicit training: %w", err)
		}
	}
	dim := ix.params.Dim
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var code []byte
	if ix.pq != nil {
		code = make([]byte, ix.pq.CodeSize())
	}
	for i, id := range ids {
		v := vecs[i*dim : i*dim+dim]
		li, _ := kmeans.Nearest(v, ix.cents)
		l := &ix.lists[li]
		l.ids = append(l.ids, id)
		switch ix.variant {
		case VariantFlat:
			l.data = append(l.data, v...)
		default:
			ix.pq.Encode(v, code)
			l.code = append(l.code, code...)
		}
		ix.count++
	}
	return nil
}

// probeOrder returns list indices sorted by centroid distance to q.
func (ix *Index) probeOrder(q []float32) []int {
	n := ix.cents.Rows()
	dists := make([]float32, n)
	vec.DistancesTo(vec.L2, q, ix.cents.Data, ix.params.Dim, dists)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	return order
}

// SearchWithFilter probes the Nprobe nearest lists, scores candidates
// (exact for FLAT, ADC for PQ variants), and optionally refines with
// exact distances when a RawProvider is set.
func (ix *Index) SearchWithFilter(q []float32, k int, filter index.Filter, p index.SearchParams) ([]index.Candidate, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("ivf: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	p = p.WithDefaults(k)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.trainedLocked() || ix.count == 0 {
		return nil, nil
	}
	fetchK := k
	doRefine := ix.variant != VariantFlat && ix.refine != nil
	if doRefine {
		fetchK = k * p.RefineFactor
	}
	cands := ix.scanLists(q, fetchK, p.Nprobe, filter, nil)
	if !doRefine {
		return cands, nil
	}
	// Refine: recompute the σ·k best ADC candidates exactly.
	buf := make([]float32, ix.params.Dim)
	t := index.NewTopK(k)
	for _, c := range cands {
		if ix.refine(c.ID, buf) {
			c.Dist = vec.Distance(ix.params.Metric, q, buf)
		}
		t.Push(c)
	}
	return t.Results(), nil
}

// scanLists is the shared probing loop: the k nearest when radiusPtr
// is nil, else everything within *radiusPtr. Flat lists are scored by
// index.ExactScan.
func (ix *Index) scanLists(q []float32, k, nprobe int, filter index.Filter, radiusPtr *float32) []index.Candidate {
	order := ix.probeOrder(q)
	if nprobe > len(order) {
		nprobe = len(order)
	}
	var adc *quant.ADCTable
	if ix.variant != VariantFlat {
		adc = ix.pq.BuildADC(ix.params.Metric, q)
	}
	var t *index.TopK
	var radius float32
	var rangeOut []index.Candidate
	if radiusPtr == nil {
		t = index.GetTopK(k)
		defer index.PutTopK(t)
	} else {
		radius = *radiusPtr
	}
	for pi := 0; pi < nprobe; pi++ {
		l := &ix.lists[order[pi]]
		if ix.variant == VariantFlat {
			rangeOut = index.ExactScan(ix.params.Metric, q, l.data, l.ids, filter, t, radius, rangeOut)
			continue
		}
		for i, id := range l.ids {
			if filter != nil && (id >= int64(filter.Len()) || id < 0 || !filter.Test(int(id))) {
				continue
			}
			d := adc.Distance(l.code[i*ix.pq.CodeSize() : (i+1)*ix.pq.CodeSize()])
			if t == nil {
				if d <= radius {
					rangeOut = append(rangeOut, index.Candidate{ID: id, Dist: d})
				}
			} else {
				t.Push(index.Candidate{ID: id, Dist: d})
			}
		}
	}
	if t == nil {
		index.SortCandidates(rangeOut)
		return rangeOut
	}
	return t.AppendResults(nil)
}

// SearchWithRange returns candidates within radius among the probed
// lists (approximate: unprobed lists may hide in-range vectors, same
// contract as faiss range_search on IVF).
func (ix *Index) SearchWithRange(q []float32, radius float32, filter index.Filter, p index.SearchParams) ([]index.Candidate, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("ivf: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	p = p.WithDefaults(16)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.trainedLocked() || ix.count == 0 {
		return nil, nil
	}
	out := ix.scanLists(q, 0, p.Nprobe, filter, &radius)
	if ix.variant != VariantFlat && ix.refine != nil {
		buf := make([]float32, ix.params.Dim)
		kept := out[:0]
		for _, c := range out {
			if ix.refine(c.ID, buf) {
				c.Dist = vec.Distance(ix.params.Metric, q, buf)
			}
			if c.Dist <= radius {
				kept = append(kept, c)
			}
		}
		out = kept
		index.SortCandidates(out)
	}
	return out, nil
}

// SearchIterator reports no native support; the engine wraps IVF with
// the generic restart iterator (paper §III-B's SingleStore-V-style
// fallback — deliberately, so both iterator paths stay exercised).
func (ix *Index) SearchIterator([]float32, index.SearchParams) (index.Iterator, error) {
	return nil, index.ErrNoNativeIterator
}

// MemoryBytes counts centroids, codebooks, ids and payloads.
func (ix *Index) MemoryBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var n int64
	if ix.cents != nil {
		n += int64(4 * len(ix.cents.Data))
	}
	if ix.pq != nil {
		n += int64(4 * len(ix.pq.Cents))
	}
	for i := range ix.lists {
		n += int64(8*len(ix.lists[i].ids) + 4*len(ix.lists[i].data) + len(ix.lists[i].code))
	}
	return n
}
