// Package baseline defines the common interface the benchmark harness
// uses to compare BlendHouse against its in-process stand-ins for
// Milvus 2.4.5 and pgvector 0.7.4 (see DESIGN.md §2 for the
// substitution rationale). Each baseline reproduces the architectural
// properties the paper credits for the performance gaps — pipelined vs
// staged index builds, cost-based strategy choice vs a single
// hardwired strategy, per-query engine overhead — not the competitors'
// code, which is out of scope. The goal is that Table IV, Figures 9/10
// and Table VII regain their *shapes*.
package baseline

import (
	"math"

	"blendhouse/internal/index"
)

// Unbounded marks an open attribute range end.
const (
	AttrMin = int64(math.MinInt64)
	AttrMax = int64(math.MaxInt64)
)

// VectorStore is the minimal surface the harness drives: bulk load
// (timed for Table IV) and filtered top-k search (timed for the QPS
// figures). Row ids are the 0-based load positions, so recall is
// computed directly against the dataset oracle.
type VectorStore interface {
	// Name labels the system in benchmark output.
	Name() string
	// Load ingests vectors with one scalar attribute per row and
	// builds the index; it returns only when the data is fully
	// searchable (the paper's end-to-end load time).
	Load(vectors []float32, dim int, attrs []int64) error
	// Search returns the ids of the top-k rows whose attribute lies in
	// [attrLo, attrHi] (use AttrMin/AttrMax for no filter).
	Search(q []float32, k int, attrLo, attrHi int64, p index.SearchParams) ([]int64, error)
	// MemoryBytes reports resident index size, or why it cannot.
	MemoryBytes() (int64, error)
}
