// Package bh adapts the real BlendHouse engine to the
// baseline.VectorStore interface so the comparison benchmarks drive
// all three systems identically. Unlike the stand-ins, nothing here is
// modeled: loads go through the LSM engine's pipelined ingestion and
// searches through the planner (CBO, plan cache, short-circuit) and
// executor.
package bh

import (
	"context"
	"errors"
	"fmt"

	"blendhouse/internal/baseline"
	"blendhouse/internal/cache"
	"blendhouse/internal/exec"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// Config tunes the BlendHouse instance under test.
type Config struct {
	TableName   string // default "bench"
	SegmentRows int
	IndexType   index.Type // default HNSW
	M           int
	EfConstr    int
	Nlist       int
	Metric      vec.Metric
	Seed        int64
	Planner     plan.PlannerConfig
	ColumnCache bool
	AutoIndex   bool
	// ClusterBuckets enables semantic partitioning.
	ClusterBuckets   int
	SemanticFraction float64
}

// Store is a live BlendHouse table under the harness interface.
type Store struct {
	cfg     Config
	store   storage.BlobStore
	tab     *lsm.Table
	planner *plan.Planner
	ex      *exec.Executor
}

// New returns an unloaded instance over the blob store.
func New(cfg Config, store storage.BlobStore) *Store {
	if cfg.TableName == "" {
		cfg.TableName = "bench"
	}
	if cfg.IndexType == "" {
		cfg.IndexType = index.HNSW
	}
	return &Store{cfg: cfg, store: store, planner: plan.NewPlanner(cfg.Planner)}
}

// Name implements baseline.VectorStore.
func (s *Store) Name() string { return "BlendHouse" }

// Table exposes the underlying LSM table (for update/compaction
// experiments).
func (s *Store) Table() *lsm.Table { return s.tab }

// Executor exposes the executor (experiment hook).
func (s *Store) Executor() *exec.Executor { return s.ex }

// Planner exposes the planner (plan-cache statistics).
func (s *Store) Planner() *plan.Planner { return s.planner }

// Load creates the table and ingests everything in one batch —
// BlendHouse splits it into segments and builds per-segment indexes
// pipelined. The table is read-only afterwards: a writer re-enables
// its WAL.
func (s *Store) Load(vectors []float32, dim int, attrs []int64) error {
	n := len(vectors) / dim
	if len(attrs) != n {
		return fmt.Errorf("bh: %d attrs for %d rows", len(attrs), n)
	}
	schema := &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "id", Type: storage.Int64Type},
		{Name: "attr", Type: storage.Int64Type},
		{Name: "embedding", Type: storage.VectorType, Dim: dim},
	}}
	tab, err := lsm.Create(s.store, lsm.Options{
		Name: s.cfg.TableName, Schema: schema,
		IndexColumn: "embedding", IndexType: s.cfg.IndexType,
		IndexParams: index.BuildParams{
			Dim: dim, Metric: s.cfg.Metric, M: s.cfg.M,
			EfConstruction: s.cfg.EfConstr, Nlist: s.cfg.Nlist, Seed: s.cfg.Seed,
		},
		AutoIndex:      s.cfg.AutoIndex,
		SegmentRows:    s.cfg.SegmentRows,
		ClusterBuckets: s.cfg.ClusterBuckets,
		Seed:           s.cfg.Seed,
	})
	if err != nil {
		return err
	}
	batch := storage.NewRowBatch(schema)
	ids := batch.Col("id")
	ac := batch.Col("attr")
	vc := batch.Col("embedding")
	for i := 0; i < n; i++ {
		ids.Ints = append(ids.Ints, int64(i))
		ac.Ints = append(ac.Ints, attrs[i])
	}
	vc.Vecs = append(vc.Vecs, vectors...)
	// As serve ingests: through the WAL, whose closing flush cuts segments.
	if err := tab.EnableWAL(lsm.WALConfig{}); err != nil {
		return err
	}
	if err := errors.Join(tab.Insert(context.Background(), batch), tab.CloseWAL()); err != nil {
		return err
	}
	s.tab = tab
	var cc *cache.ColumnCache
	if s.cfg.ColumnCache {
		cfg := cache.DefaultColumnCacheConfig()
		cc = cache.NewColumnCache(cfg)
	}
	s.ex = &exec.Executor{
		Table: tab, ColCache: cc,
		SemanticFraction: s.cfg.SemanticFraction, MinSegments: 1,
	}
	return nil
}

// Search builds the hybrid SELECT AST (no string round trip — the
// planner consumes ASTs) and runs it through CBO + executor.
func (s *Store) Search(q []float32, k int, attrLo, attrHi int64, p index.SearchParams) ([]int64, error) {
	if s.tab == nil {
		return nil, fmt.Errorf("bh: not loaded")
	}
	sel := &sql.Select{
		Table:   s.cfg.TableName,
		Columns: []sql.SelectItem{{Name: "id"}},
		OrderBy: &sql.OrderBy{Distance: &sql.DistanceExpr{
			Func: distFuncName(s.cfg.Metric), Column: "embedding", Query: q,
		}},
		Limit:    k,
		Settings: map[string]int{},
	}
	if p.Ef > 0 {
		sel.Settings["ef_search"] = p.Ef
	}
	if p.Nprobe > 0 {
		sel.Settings["nprobe"] = p.Nprobe
	}
	if p.RefineFactor > 0 {
		sel.Settings["refine"] = p.RefineFactor
	}
	if attrLo > baseline.AttrMin || attrHi < baseline.AttrMax {
		sel.Where = append(sel.Where, sql.Predicate{
			Column: "attr", Op: sql.OpBetween, Value: attrLo, Value2: attrHi,
		})
	}
	ph, err := s.planner.Plan(sel, s.tab)
	if err != nil {
		return nil, err
	}
	res, err := s.ex.Run(context.Background(), ph)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].(int64)
	}
	return out, nil
}

// MemoryBytes sums the per-segment index sizes.
func (s *Store) MemoryBytes() int64 {
	if s.tab == nil {
		return 0
	}
	var total int64
	for _, m := range s.tab.Segments() {
		ix, err := s.tab.OpenIndex(m.Name)
		if err != nil {
			continue
		}
		total += ix.MemoryBytes()
	}
	return total
}

func distFuncName(m vec.Metric) string {
	switch m {
	case vec.InnerProduct:
		return "InnerProduct"
	case vec.Cosine:
		return "CosineDistance"
	default:
		return "L2Distance"
	}
}
