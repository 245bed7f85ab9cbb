// Package index defines the "virtual vector index" abstraction of
// paper §III-A (Figure 5): a single interface every index type
// implements, split into a storage API (Train, AddWithIDs, Save,
// Load) and an execution API (SearchWithFilter, SearchWithRange,
// SearchIterator). Index types register constructors in a global
// registry, making the library pluggable — the engine above never
// names a concrete index type.
//
// Per-segment indexes (paper §III-B) store 0-based row offsets as IDs,
// so filter bitsets and delete bitmaps index directly into them.
package index

import (
	"fmt"
	"io"

	"blendhouse/internal/bitset"
)

// Type identifies an index algorithm, matching the SQL dialect's
// TYPE clause (INDEX ann_idx embedding TYPE HNSW(...)).
type Type string

// The six index types of paper §III-A, plus FLAT (exact scan), which
// the engine uses for brute-force plan A and as the cache-miss
// fallback.
const (
	Flat    Type = "FLAT"
	HNSW    Type = "HNSW"
	HNSWSQ  Type = "HNSWSQ"
	IVFFlat Type = "IVFFLAT"
	IVFPQ   Type = "IVFPQ"
	IVFPQFS Type = "IVFPQFS"
	DiskANN Type = "DISKANN"
)

// Candidate is one search hit: the vector's ID (row offset for
// per-segment indexes) and its distance to the query under the
// index's metric (smaller is closer for every metric).
type Candidate struct {
	ID   int64
	Dist float32
}

// Filter restricts a search to IDs whose bit is set. A nil *Bitset
// means "no restriction". Implementations must not return candidates
// whose bit is clear, and must keep searching until k passing
// candidates are found or the index is exhausted (the "bitset ANN
// scan" of the pre-filter strategy, paper §III-B).
type Filter = *bitset.Bitset

// Iterator supports the SearchIterator execution interface: repeated
// Next calls stream candidates in (approximately) ascending distance
// order without restarting the search. It backs the post-filter
// strategy (paper §III-B) where the engine pulls batches until enough
// rows survive the scalar predicate.
type Iterator interface {
	// Next returns up to n further candidates. It returns an empty
	// slice (not an error) once the index is exhausted.
	Next(n int) ([]Candidate, error)
	// Close releases iterator resources. Safe to call twice.
	Close() error
}

// Index is the virtual vector index. All implementations must be
// safe for concurrent Search* calls after construction is complete;
// AddWithIDs/Train are single-writer (segments are built once and
// sealed, so the engine never mutates a searchable index).
type Index interface {
	// --- storage API -------------------------------------------------

	// Train learns data-dependent parameters (e.g. IVF centroids,
	// quantizer codebooks) from the sample. Indexes for which
	// NeedsTrain() is false treat it as a no-op.
	Train(sample []float32) error
	// AddWithIDs inserts len(ids) vectors (flat row-major). For
	// per-segment indexes the ids are the rows' offsets.
	AddWithIDs(vecs []float32, ids []int64) error
	// Save serializes the full index state.
	Save(w io.Writer) error
	// Load restores state written by Save into a freshly constructed
	// index of the same type and build parameters. Ownership: the
	// index may reference blob for its whole life (HNSW reads its
	// vectors out of it in place) — the caller hands the blob over and
	// must not modify it afterwards. A slice straight from a BlobStore
	// read is exactly that. Any blob Load cannot accept — truncated,
	// inconsistent, or written for another type or dimension — fails
	// with an error wrapping ErrCorrupt.
	Load(blob []byte) error

	// --- execution API -----------------------------------------------

	// SearchWithFilter returns the k nearest candidates passing the
	// filter, closest first. Fewer than k are returned only when the
	// filtered index holds fewer than k vectors.
	SearchWithFilter(q []float32, k int, filter Filter, p SearchParams) ([]Candidate, error)
	// SearchWithRange returns every candidate within radius of q that
	// passes the filter, closest first.
	SearchWithRange(q []float32, radius float32, filter Filter, p SearchParams) ([]Candidate, error)
	// SearchIterator begins an incremental search. Indexes without
	// native support return ErrNoNativeIterator; callers then wrap
	// the index with NewRestartIterator.
	SearchIterator(q []float32, p SearchParams) (Iterator, error)

	// --- metadata ----------------------------------------------------

	Type() Type
	Dim() int
	Count() int
	// MemoryBytes reports resident size of the searchable structure,
	// feeding Table VI and the hierarchical cache's accounting.
	MemoryBytes() int64
	NeedsTrain() bool
}

// RowKeeper is optionally implemented by index types whose saved blob
// holds the added vectors verbatim, so that a segment can read its
// vector column out of the index blob instead of storing it twice.
type RowKeeper interface {
	// SavedRows locates, in a blob of blobLen bytes written by Save, the
	// vectors given to AddWithIDs: in add order, dim little-endian
	// float32 each, contiguous. ok is fixed at construction; a variant
	// that keeps them in another form (quantized) answers false.
	SavedRows(blobLen int64) (off, length int64, ok bool)
}

// ErrNoNativeIterator is returned by SearchIterator for index types
// without incremental search; the engine falls back to the generic
// restart iterator (SingleStore-V style, paper §III-B).
var ErrNoNativeIterator = fmt.Errorf("index: no native iterator; use NewRestartIterator")

// ValidateAdd checks the common AddWithIDs invariants so each
// implementation doesn't re-derive them.
func ValidateAdd(dim int, vecs []float32, ids []int64) error {
	if dim <= 0 {
		return fmt.Errorf("index: dimension not set")
	}
	if len(vecs) != len(ids)*dim {
		return fmt.Errorf("index: %d floats for %d ids at dim %d", len(vecs), len(ids), dim)
	}
	return nil
}
