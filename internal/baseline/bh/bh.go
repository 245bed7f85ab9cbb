// Package bh drives the BlendHouse engine under the
// baseline.VectorStore interface, on the path serve hosts: core.New, a
// CREATE TABLE statement, one Insert through the table's write-ahead
// log, and every query as SQL text through Engine.Query. Unlike the
// stand-ins, nothing here is modeled or wired by hand.
package bh

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"blendhouse/internal/baseline"
	"blendhouse/internal/core"
	"blendhouse/internal/index"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

// Config is the engine under test and its table's vector index.
type Config struct {
	// Engine configures the engine (Planner, SegmentRows, AutoIndex,
	// Seed); New sets its Store.
	Engine    core.Config
	TableName string     // default "bench"
	IndexType index.Type // default HNSW
	M         int
	EfConstr  int
}

// Store is a live BlendHouse table under the harness interface.
type Store struct {
	cfg Config
	eng *core.Engine
}

// New returns an unloaded instance over the blob store.
func New(cfg Config, store storage.BlobStore) *Store {
	if cfg.TableName == "" {
		cfg.TableName = "bench"
	}
	if cfg.IndexType == "" {
		cfg.IndexType = index.HNSW
	}
	cfg.Engine.Store = store
	return &Store{cfg: cfg}
}

// Name implements baseline.VectorStore.
func (s *Store) Name() string { return "BlendHouse" }

// Engine is the loaded engine, nil before Load.
func (s *Store) Engine() *core.Engine { return s.eng }

// IndexDDL renders the INDEX clause of a CREATE TABLE on column col:
// DIM, then M and EF_CONSTRUCTION when set, then SEED.
func IndexDDL(col string, typ index.Type, p index.BuildParams) string {
	kv := []string{fmt.Sprintf("'DIM=%d'", p.Dim)}
	if p.M > 0 {
		kv = append(kv, fmt.Sprintf("'M=%d'", p.M))
	}
	if p.EfConstruction > 0 {
		kv = append(kv, fmt.Sprintf("'EF_CONSTRUCTION=%d'", p.EfConstruction))
	}
	kv = append(kv, fmt.Sprintf("'SEED=%d'", p.Seed))
	return fmt.Sprintf("INDEX ann %s TYPE %s(%s)", col, typ, strings.Join(kv, ","))
}

// AppendVector appends v as a SQL array literal. Each element is
// strconv's shortest float32 form, which parses back to the same bits.
func AppendVector(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
	}
	return append(b, ']')
}

// Load opens an engine over cfg and loads one table as serve does: ddl
// creates it, the rows fill appends go in through one Insert into its
// write-ahead log, and FlushWAL cuts the segments and builds their
// indexes. The engine is then closed, which stops the log: it answers
// queries, and its table is read-only until a writer re-enables the
// table's WAL.
func Load(cfg core.Config, ddl string, fill func(*storage.RowBatch)) (*core.Engine, error) {
	st, err := sql.Parse(ddl)
	if err != nil {
		return nil, err
	}
	ct, ok := st.(*sql.CreateTable)
	if !ok {
		return nil, fmt.Errorf("bh: %T is not a CREATE TABLE", st)
	}
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, err := eng.Exec(context.Background(), ddl); err != nil {
		return nil, err
	}
	tab := eng.Table(ct.Name)
	batch := storage.NewRowBatch(tab.Schema())
	fill(batch)
	if err := errors.Join(tab.Insert(context.Background(), batch), tab.FlushWAL()); err != nil {
		return nil, err
	}
	return eng, nil
}

// Load implements baseline.VectorStore: one table (id, attr,
// embedding) whose row ids are the load positions.
func (s *Store) Load(vectors []float32, dim int, attrs []int64) error {
	n := len(vectors) / dim
	if len(attrs) != n {
		return fmt.Errorf("bh: %d attrs for %d rows", len(attrs), n)
	}
	ddl := fmt.Sprintf("CREATE TABLE %s (id Int64, attr Int64, embedding Array(Float32), %s)",
		s.cfg.TableName, IndexDDL("embedding", s.cfg.IndexType, index.BuildParams{
			Dim: dim, M: s.cfg.M, EfConstruction: s.cfg.EfConstr, Seed: s.cfg.Engine.Seed,
		}))
	eng, err := Load(s.cfg.Engine, ddl, func(b *storage.RowBatch) {
		ids := b.Col("id")
		for i := 0; i < n; i++ {
			ids.Ints = append(ids.Ints, int64(i))
		}
		b.Col("attr").Ints = append(b.Col("attr").Ints, attrs...)
		b.Col("embedding").Vecs = append(b.Col("embedding").Vecs, vectors...)
	})
	s.eng = eng
	return err
}

// Statement renders Search's query as the SQL text it runs.
func (s *Store) Statement(q []float32, k int, attrLo, attrHi int64, p index.SearchParams) string {
	b := append([]byte("SELECT id FROM "), s.cfg.TableName...)
	if attrLo > baseline.AttrMin || attrHi < baseline.AttrMax {
		b = fmt.Appendf(b, " WHERE attr BETWEEN %d AND %d", attrLo, attrHi)
	}
	b = AppendVector(append(b, " ORDER BY L2Distance(embedding, "...), q)
	b = fmt.Appendf(b, ") LIMIT %d", k)
	sep := " SETTINGS "
	for _, set := range []struct {
		key string
		val int
	}{{"ef_search", p.Ef}, {"nprobe", p.Nprobe}, {"refine", p.RefineFactor}} {
		if set.val > 0 {
			b = fmt.Appendf(b, "%s%s=%d", sep, set.key, set.val)
			sep = ", "
		}
	}
	return string(b)
}

// Search runs Statement through Engine.Query.
func (s *Store) Search(q []float32, k int, attrLo, attrHi int64, p index.SearchParams) ([]int64, error) {
	if s.eng == nil {
		return nil, fmt.Errorf("bh: not loaded")
	}
	return IDs(s.eng, s.Statement(q, k, attrLo, attrHi, p))
}

// IDs runs a SELECT whose first column is an Int64 id through
// Engine.Query and returns that column.
func IDs(eng *core.Engine, stmt string) ([]int64, error) {
	res, err := eng.Query(context.Background(), stmt, core.QueryOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].(int64)
	}
	return out, nil
}

// MemoryBytes sums the per-segment index sizes. An index that fails to
// open fails the sum rather than leave it short.
func (s *Store) MemoryBytes() (int64, error) {
	if s.eng == nil {
		return 0, nil
	}
	tab := s.eng.Table(s.cfg.TableName)
	var total int64
	for _, m := range tab.Segments() {
		ix, err := tab.OpenIndex(m.Name)
		if err != nil {
			return 0, fmt.Errorf("bh: index of segment %s: %w", m.Name, err)
		}
		total += ix.MemoryBytes()
	}
	return total, nil
}
