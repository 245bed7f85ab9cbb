// Package flat implements the exact brute-force index. It backs the
// cost model's plan A (brute force after scalar filtering), the
// cache-miss fallback path, and serves as the ground-truth oracle for
// recall measurement in the benchmark harness.
package flat

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"blendhouse/internal/index"
	"blendhouse/internal/vec"
)

func init() {
	index.Register(index.Flat, func(p index.BuildParams) (index.Index, error) {
		return New(p)
	})
}

// Index is an exact-scan index: raw vectors plus IDs.
type Index struct {
	params index.BuildParams
	data   []float32
	ids    []int64 // nil: row i's id is i (a View over row offsets)
}

// New returns an empty flat index.
func New(p index.BuildParams) (*Index, error) {
	if p.Dim <= 0 {
		return nil, fmt.Errorf("flat: dimension must be positive, got %d", p.Dim)
	}
	return &Index{params: p}, nil
}

// View returns a flat index over data (rows × dim) and ids in place,
// with no copy; nil ids make each row's id its offset. They are lent
// under index.Lend's contract: the index only reads them, and capped
// at their length so AddWithIDs reallocates instead of writing into
// them.
func View(p index.BuildParams, data []float32, ids []int64) *Index {
	if ids != nil {
		ids = ids[:len(ids):len(ids)]
	}
	return &Index{params: p, data: data[:len(data):len(data)], ids: ids}
}

// Train is a no-op: flat indexes have no learned state.
func (ix *Index) Train([]float32) error { return nil }

// NeedsTrain reports false.
func (ix *Index) NeedsTrain() bool { return false }

// AddWithIDs appends vectors.
func (ix *Index) AddWithIDs(vecs []float32, ids []int64) error {
	if err := index.ValidateAdd(ix.params.Dim, vecs, ids); err != nil {
		return err
	}
	if ix.ids == nil {
		ix.ids = make([]int64, ix.Count(), ix.Count()+len(ids))
		for i := range ix.ids {
			ix.ids[i] = int64(i)
		}
	}
	ix.data = append(ix.data, vecs...)
	ix.ids = append(ix.ids, ids...)
	return nil
}

// Type returns index.Flat.
func (ix *Index) Type() index.Type { return index.Flat }

// Dim returns the vector dimension.
func (ix *Index) Dim() int { return ix.params.Dim }

// Count returns the number of stored vectors.
func (ix *Index) Count() int { return len(ix.data) / ix.params.Dim }

// MemoryBytes returns the resident size of the raw vectors and IDs.
func (ix *Index) MemoryBytes() int64 {
	return int64(4*len(ix.data) + 8*len(ix.ids))
}

// SearchWithFilter returns the exact k nearest of the rows filter
// admits (index.ExactScan).
func (ix *Index) SearchWithFilter(q []float32, k int, filter index.Filter, _ index.SearchParams) ([]index.Candidate, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("flat: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	t := index.GetTopK(k)
	defer index.PutTopK(t)
	index.ExactScan(ix.params.Metric, q, ix.data, ix.ids, filter, t, 0, nil)
	return t.AppendResults(nil), nil
}

// SearchWithRange returns all candidates within radius, closest first
// (index.ExactScan).
func (ix *Index) SearchWithRange(q []float32, radius float32, filter index.Filter, _ index.SearchParams) ([]index.Candidate, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("flat: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	out := index.ExactScan(ix.params.Metric, q, ix.data, ix.ids, filter, nil, radius, nil)
	index.SortCandidates(out)
	return out, nil
}

// SearchIterator returns a native exact iterator: it scores every row
// once, on the blocked kernels, and each Next orders only the batch it
// returns (index.SelectCandidates, then a sort of the batch), so a
// post-filter search that stops after its first batch never sorts the
// segment.
func (ix *Index) SearchIterator(q []float32, _ index.SearchParams) (index.Iterator, error) {
	if len(q) != ix.params.Dim {
		return nil, fmt.Errorf("flat: query dim %d != index dim %d", len(q), ix.params.Dim)
	}
	dists := make([]float32, ix.Count())
	vec.DistancesTo(ix.params.Metric, q, ix.data, ix.params.Dim, dists)
	all := make([]index.Candidate, len(dists))
	for i, d := range dists {
		all[i] = index.Candidate{ID: index.RowID(ix.ids, i), Dist: d}
	}
	return &flatIterator{rest: all}, nil
}

type flatIterator struct{ rest []index.Candidate }

func (it *flatIterator) Next(n int) ([]index.Candidate, error) {
	n = max(0, min(n, len(it.rest)))
	index.SelectCandidates(it.rest, n)
	index.SortCandidates(it.rest[:n])
	out := it.rest[:n:n]
	it.rest = it.rest[n:]
	return out, nil
}

func (it *flatIterator) Close() error {
	it.rest = nil
	return nil
}

const magic = uint32(0xB1F1A700)

// Save writes the index: magic, dim, count, ids, raw vectors, encoded
// into one buffer of exactly the blob's size and written at once.
func (ix *Index) Save(w io.Writer) error {
	n := ix.Count()
	b := make([]byte, 0, 16+8*n+4*len(ix.data))
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.params.Dim))
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(index.RowID(ix.ids, i)))
	}
	for _, v := range ix.data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("flat: writing index: %w", err)
	}
	return nil
}

// SavedRows implements index.RowKeeper: the vectors end the blob as
// they were added.
func (ix *Index) SavedRows(blobLen int64) (off, length int64, ok bool) {
	length = 4 * int64(len(ix.data))
	return blobLen - length, length, true
}

// Load restores an index written by Save. The ids and vectors are read
// where they lie in the blob — ids at offset 16, vectors at 16 + 8n,
// both aligned in any 8-aligned blob — and copied only where the host
// or the address rules a view out (index.Lend); either way they have
// cap == len, so AddWithIDs reallocates and never writes into the blob.
func (ix *Index) Load(blob []byte) error {
	c := index.NewCursor(blob)
	m, dim, count := c.U32(), c.U32(), c.U64()
	if err := c.Err(); err != nil {
		return fmt.Errorf("flat: reading header: %w", err)
	}
	if m != magic {
		return index.Corruptf("flat: bad magic %#x", m)
	}
	if int(dim) != ix.params.Dim {
		return index.Corruptf("flat: stored dim %d != constructed dim %d", dim, ix.params.Dim)
	}
	// The payload is exactly count ids then count vectors.
	rowBytes := 8 + 4*int(dim)
	if c.Remaining()%rowBytes != 0 || count != uint64(c.Remaining()/rowBytes) {
		return index.Corruptf("flat: %d rows at dim %d do not match the %d payload bytes", count, dim, c.Remaining())
	}
	n := int(count)
	ix.ids = index.Lend(n, c.Int64View, c.Int64s)
	ix.data = index.Lend(n*int(dim), c.Float32View, c.Float32s)
	return nil
}

// Vector returns the stored vector for position i (not ID) — used by
// refine/re-rank stages that need exact distances.
func (ix *Index) Vector(i int) []float32 {
	dim := ix.params.Dim
	return ix.data[i*dim : i*dim+dim]
}
