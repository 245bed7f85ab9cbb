// Package pgvectorlike is the in-process stand-in for pgvector 0.7.4
// used by the comparison benchmarks. It reproduces the architectural
// properties the paper measures against:
//
//   - Single-node, single *global* HNSW over the whole heap, built
//     single-threaded after the heap is written (CREATE INDEX-style),
//     which is why its Table IV load times are the slowest.
//   - Post-filter as the *only* hybrid strategy, with no iterative
//     refill: the index returns ef_search candidates once, the filter
//     drops non-qualifying rows, and whatever survives is the answer.
//     Under highly selective predicates this returns far fewer than k
//     rows — the paper's "extremely low recall (<10%)" at the
//     99%-filtered workload and the "<0.35" recall in Table VII.
//   - PostgreSQL executor/planner per-query overhead modeled as a
//     fixed cost.
package pgvectorlike

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"blendhouse/internal/index"
	"blendhouse/internal/index/hnsw"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// Config tunes the stand-in.
type Config struct {
	M, EfConstruction int
	Metric            vec.Metric
	Seed              int64
	// QueryOverhead models the PostgreSQL planner/executor path
	// (default 400µs — heavier than an embedded engine or a purpose-
	// built proxy).
	QueryOverhead time.Duration
}

// heapPageRows sizes the heap flush batches.
const heapPageRows = 512

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.QueryOverhead == 0 {
		c.QueryOverhead = 400 * time.Microsecond
	}
	return c
}

// Store is a loaded pgvector-like table.
type Store struct {
	cfg   Config
	store storage.BlobStore
	dim   int
	idx   *hnsw.Index
	attrs []int64
	n     int
}

// New returns an empty table writing heap pages to store.
func New(cfg Config, store storage.BlobStore) *Store {
	return &Store{cfg: cfg.withDefaults(), store: store}
}

// Name implements baseline.VectorStore.
func (s *Store) Name() string { return "pgvector-like" }

// Load writes the heap, then builds one global HNSW single-threaded,
// then persists the index — the sequential CREATE INDEX pipeline.
func (s *Store) Load(vectors []float32, dim int, attrs []int64) error {
	if dim <= 0 || len(vectors)%dim != 0 {
		return fmt.Errorf("pgvectorlike: bad vector payload")
	}
	n := len(vectors) / dim
	if len(attrs) != n {
		return fmt.Errorf("pgvectorlike: %d attrs for %d rows", len(attrs), n)
	}
	s.dim = dim
	s.n = n
	s.attrs = append([]int64(nil), attrs...)

	// Heap write, page by page (WAL-ish I/O).
	page := 0
	for base := 0; base < n; base += heapPageRows {
		end := base + heapPageRows
		if end > n {
			end = n
		}
		blob := make([]byte, 4*(end-base)*dim)
		for i, f := range vectors[base*dim : end*dim] {
			binary.LittleEndian.PutUint32(blob[4*i:], math.Float32bits(f))
		}
		if err := s.store.Put(fmt.Sprintf("pg/heap%06d", page), blob); err != nil {
			return fmt.Errorf("pgvectorlike: heap write: %w", err)
		}
		page++
	}
	// Single global graph, inserted row by row (single-threaded).
	ix, err := hnsw.New(index.BuildParams{
		Dim: dim, Metric: s.cfg.Metric, M: s.cfg.M,
		EfConstruction: s.cfg.EfConstruction, Seed: s.cfg.Seed,
	}.WithDefaults(), false)
	if err != nil {
		return err
	}
	ids := []int64{0}
	for i := 0; i < n; i++ {
		ids[0] = int64(i)
		if err := ix.AddWithIDs(vectors[i*dim:(i+1)*dim], ids); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		return err
	}
	if err := s.store.Put("pg/index.hnsw", buf.Bytes()); err != nil {
		return err
	}
	s.idx = ix
	return nil
}

// Search implements pgvector's non-iterative post-filter: one index
// probe of ef_search candidates, filter, truncate. No refill — this
// is precisely what collapses recall under selective filters.
func (s *Store) Search(q []float32, k int, attrLo, attrHi int64, p index.SearchParams) ([]int64, error) {
	time.Sleep(s.cfg.QueryOverhead)
	if s.idx == nil {
		return nil, fmt.Errorf("pgvectorlike: not loaded")
	}
	p = p.WithDefaults(k)
	probe := p.Ef
	if probe < k {
		probe = k
	}
	cands, err := s.idx.SearchWithFilter(q, probe, nil, p)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, k)
	for _, c := range cands {
		a := s.attrs[c.ID]
		if a >= attrLo && a <= attrHi {
			out = append(out, c.ID)
			if len(out) == k {
				break
			}
		}
	}
	return out, nil
}

// MemoryBytes reports the in-memory global index size; it never fails.
func (s *Store) MemoryBytes() (int64, error) {
	if s.idx == nil {
		return 0, nil
	}
	return s.idx.MemoryBytes(), nil
}
