package sql

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Kinds lists every statement class Kind returns.
var Kinds = []string{
	"select", "insert", "delete", "create_table", "drop_table",
	"show", "explain", "describe", "optimize", "backup", "restore", "other",
}

// Kind classifies a statement for the per-type latency histograms,
// the trace ring and the engine's logs.
func Kind(st Statement) string {
	switch st.(type) {
	case *Select:
		return "select"
	case *Insert:
		return "insert"
	case *Delete:
		return "delete"
	case *CreateTable:
		return "create_table"
	case *DropTable:
		return "drop_table"
	case *ShowTables, *ShowMetrics, *ShowTraces:
		return "show"
	case *Explain:
		return "explain"
	case *Describe:
		return "describe"
	case *Optimize:
		return "optimize"
	case *Backup:
		return "backup"
	case *Restore:
		return "restore"
	}
	return "other"
}

// CreateTable mirrors the dialect of paper Example 1.
type CreateTable struct {
	Name    string
	Columns []ColumnSpec
	Indexes []IndexSpec
	OrderBy string
	// PartitionBy lists scalar partition columns (expression wrappers
	// like toYYYYMMDD(col) are accepted by the parser and reduced to
	// their column).
	PartitionBy []string
	// ClusterBy/ClusterBuckets encode CLUSTER BY col INTO n BUCKETS.
	ClusterBy      string
	ClusterBuckets int
}

func (*CreateTable) stmt() {}

// ColumnSpec is one column definition.
type ColumnSpec struct {
	Name     string
	TypeName string // e.g. UInt64, String, Array(Float32)
}

// IndexSpec is INDEX name col TYPE kind('K=V',...).
type IndexSpec struct {
	Name   string
	Column string
	Kind   string   // HNSW, IVFFLAT, ...
	Params []string // raw 'K=V' strings
}

// DropTable drops a table.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

// ShowTables lists the catalog.
type ShowTables struct{}

func (*ShowTables) stmt() {}

// ShowMetrics dumps the process-wide metrics registry.
type ShowMetrics struct{}

func (*ShowMetrics) stmt() {}

// ShowTraces lists the recent finished query traces retained by the
// in-process ring buffer (newest first).
type ShowTraces struct{}

func (*ShowTraces) stmt() {}

// Explain wraps a SELECT: EXPLAIN prints the optimizer's plan choice
// with cost estimates; EXPLAIN ANALYZE additionally executes the query
// and prints the recorded span tree and cache tallies.
type Explain struct {
	Analyze bool
	Query   *Select
}

func (*Explain) stmt() {}

// Describe shows a table's schema and index definition.
type Describe struct{ Name string }

func (*Describe) stmt() {}

// Delete removes rows by key: DELETE FROM t WHERE col = v / col IN (...).
// The paper's realtime-delete path (delete bitmap over the old rows).
type Delete struct {
	Table  string
	Column string
	Keys   []int64
}

func (*Delete) stmt() {}

// Optimize triggers compaction: OPTIMIZE TABLE t (ClickHouse idiom).
type Optimize struct{ Name string }

func (*Optimize) stmt() {}

// Backup snapshots a table (manifest + segments + WAL tail) into a
// destination blob store: BACKUP TABLE t TO 'dest' [WITH KEY 'secret'].
// The optional key encrypts the destination (AES-GCM).
type Backup struct {
	Table string
	Dest  string
	Key   string
}

func (*Backup) stmt() {}

// Restore loads a backup into the engine's store and replays the WAL
// tail past the snapshot watermark (point-in-time recovery):
// RESTORE TABLE t FROM 'src' [WITH KEY 'secret'].
type Restore struct {
	Table  string
	Source string
	Key    string
}

func (*Restore) stmt() {}

// Insert covers both VALUES and CSV INFILE forms.
type Insert struct {
	Table string
	// Rows holds literal rows (VALUES form); each value is int64,
	// float64, string, or []float32.
	Rows [][]any
	// Infile is the CSV path (INFILE form); empty otherwise.
	Infile string
}

func (*Insert) stmt() {}

// Select is the hybrid query form.
type Select struct {
	Columns []SelectItem
	Table   string
	Where   []Predicate
	// OrderBy holds either a distance function (vector search) or a
	// plain column.
	OrderBy *OrderBy
	Limit   int // 0 = no limit
	// Settings carries SETTINGS k=v pairs (ef_search, nprobe, ...).
	Settings map[string]int
}

func (*Select) stmt() {}

// SelectItem is one projection: a column name, "*", or the distance
// alias declared in ORDER BY ... AS alias.
type SelectItem struct {
	Name string
	Star bool
}

// PredOp enumerates scalar predicate operators.
type PredOp string

// Predicate operators.
const (
	OpEq      PredOp = "="
	OpNe      PredOp = "!="
	OpLt      PredOp = "<"
	OpLe      PredOp = "<="
	OpGt      PredOp = ">"
	OpGe      PredOp = ">="
	OpBetween PredOp = "BETWEEN"
	OpIn      PredOp = "IN"
	OpRegexp  PredOp = "REGEXP"
	OpLike    PredOp = "LIKE"
)

// Predicate is one conjunct of the WHERE clause. For BETWEEN, Value
// and Value2 are the bounds; for IN, Values holds the set. A distance
// predicate (Distance != nil) encodes range search:
// L2Distance(col, [q]) < r.
type Predicate struct {
	Column string
	Op     PredOp
	Value  any
	Value2 any
	Values []any

	Distance *DistanceExpr // non-nil for distance range predicates
}

// DistanceExpr is distFunc(column, [query vector]).
type DistanceExpr struct {
	Func   string // L2Distance, InnerProduct, CosineDistance
	Column string
	Query  []float32
}

// OrderBy is the sorting clause. Distance != nil means ANN search;
// otherwise Column sorts scalars.
type OrderBy struct {
	Distance *DistanceExpr
	Alias    string // AS name for the distance value
	Column   string
	Desc     bool
}

// String renders a statement for debugging.
func StatementString(s Statement) string {
	switch t := s.(type) {
	case *CreateTable:
		return fmt.Sprintf("CREATE TABLE %s (%d columns, %d indexes)", t.Name, len(t.Columns), len(t.Indexes))
	case *DropTable:
		return "DROP TABLE " + t.Name
	case *Insert:
		if t.Infile != "" {
			return fmt.Sprintf("INSERT INTO %s CSV INFILE %q", t.Table, t.Infile)
		}
		return fmt.Sprintf("INSERT INTO %s (%d rows)", t.Table, len(t.Rows))
	case *Select:
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			if c.Star {
				cols[i] = "*"
			} else {
				cols[i] = c.Name
			}
		}
		return fmt.Sprintf("SELECT %s FROM %s", strings.Join(cols, ","), t.Table)
	case *Backup:
		s := fmt.Sprintf("BACKUP TABLE %s TO %s", t.Table, sqlString(t.Dest))
		if t.Key != "" {
			s += " WITH KEY " + sqlString(t.Key)
		}
		return s
	case *Restore:
		s := fmt.Sprintf("RESTORE TABLE %s FROM %s", t.Table, sqlString(t.Source))
		if t.Key != "" {
			s += " WITH KEY " + sqlString(t.Key)
		}
		return s
	default:
		return fmt.Sprintf("%T", s)
	}
}

// sqlString renders a SQL single-quoted string literal (embedded
// quotes double, matching the lexer's escape rule).
func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
