package storage

import (
	"fmt"
	"strconv"
)

// ColumnType enumerates the column types BlendHouse tables support —
// the set the paper's experiments need (ints, floats, strings,
// datetimes-as-millis, and vector embeddings).
type ColumnType uint8

// Column types. DateTime values are stored as Unix milliseconds in an
// Int64-shaped column but keep their own type tag for SQL semantics.
const (
	Int64Type ColumnType = iota
	Float64Type
	StringType
	DateTimeType
	VectorType
)

// String returns the SQL name of the type.
func (t ColumnType) String() string {
	switch t {
	case Int64Type:
		return "UInt64"
	case Float64Type:
		return "Float64"
	case StringType:
		return "String"
	case DateTimeType:
		return "DateTime"
	case VectorType:
		return "Array(Float32)"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// ParseColumnType maps SQL type names to ColumnType.
func ParseColumnType(s string) (ColumnType, error) {
	switch s {
	case "UInt64", "Int64", "UInt32", "Int32":
		return Int64Type, nil
	case "Float64", "Float32":
		return Float64Type, nil
	case "String":
		return StringType, nil
	case "DateTime":
		return DateTimeType, nil
	case "Array(Float32)", "Array(Float64)":
		return VectorType, nil
	default:
		return 0, fmt.Errorf("storage: unknown column type %q", s)
	}
}

// ColumnDef declares one column. Dim is only meaningful for
// VectorType.
type ColumnDef struct {
	Name string     `json:"name"`
	Type ColumnType `json:"type"`
	Dim  int        `json:"dim,omitempty"`
}

// Schema is an ordered list of column definitions.
type Schema struct {
	Columns []ColumnDef `json:"columns"`
	// OrderBy is the sorting-key column (the dialect's ORDER BY in
	// CREATE TABLE); empty means insertion order.
	OrderBy string `json:"order_by,omitempty"`
}

// Col returns the position and definition of a named column, or
// (-1, nil) when absent.
func (s *Schema) Col(name string) (int, *ColumnDef) {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return i, &s.Columns[i]
		}
	}
	return -1, nil
}

// VectorColumn returns the first vector column, or nil.
func (s *Schema) VectorColumn() *ColumnDef {
	for i := range s.Columns {
		if s.Columns[i].Type == VectorType {
			return &s.Columns[i]
		}
	}
	return nil
}

// Validate checks structural invariants: nonempty, unique names,
// vector columns carry a dimension.
func (s *Schema) Validate() error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("storage: schema has no columns")
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("storage: unnamed column")
		}
		if seen[c.Name] {
			return fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if c.Type == VectorType && c.Dim <= 0 {
			return fmt.Errorf("storage: vector column %q missing dimension", c.Name)
		}
	}
	if s.OrderBy != "" {
		if i, _ := s.Col(s.OrderBy); i < 0 {
			return fmt.Errorf("storage: ORDER BY column %q not in schema", s.OrderBy)
		}
	}
	return nil
}

// ColumnData holds one column's values for a batch of rows. Exactly
// one of the value slices is populated, matching Def.Type (DateTime
// shares Ints).
type ColumnData struct {
	Def    ColumnDef
	Ints   []int64
	Floats []float64
	Strs   []string
	Vecs   []float32 // rows × Def.Dim
}

// NewColumnData returns an empty column buffer for def.
func NewColumnData(def ColumnDef) *ColumnData {
	return &ColumnData{Def: def}
}

// NewColumnDataCap returns an empty column buffer for def with room
// for rows rows, for callers that know how many they will append.
func NewColumnDataCap(def ColumnDef, rows int) *ColumnData {
	c := &ColumnData{Def: def}
	switch def.Type {
	case Int64Type, DateTimeType:
		c.Ints = make([]int64, 0, rows)
	case Float64Type:
		c.Floats = make([]float64, 0, rows)
	case StringType:
		c.Strs = make([]string, 0, rows)
	case VectorType:
		c.Vecs = make([]float32, 0, rows*def.Dim)
	}
	return c
}

// Len returns the number of rows stored.
func (c *ColumnData) Len() int {
	switch c.Def.Type {
	case Int64Type, DateTimeType:
		return len(c.Ints)
	case Float64Type:
		return len(c.Floats)
	case StringType:
		return len(c.Strs)
	case VectorType:
		if c.Def.Dim == 0 {
			return 0
		}
		return len(c.Vecs) / c.Def.Dim
	}
	return 0
}

// AppendRow copies row i of src onto c. The defs must match.
func (c *ColumnData) AppendRow(src *ColumnData, i int) {
	switch c.Def.Type {
	case Int64Type, DateTimeType:
		c.Ints = append(c.Ints, src.Ints[i])
	case Float64Type:
		c.Floats = append(c.Floats, src.Floats[i])
	case StringType:
		c.Strs = append(c.Strs, src.Strs[i])
	case VectorType:
		d := c.Def.Dim
		c.Vecs = append(c.Vecs, src.Vecs[i*d:(i+1)*d]...)
	}
}

// View returns rows [start, end) of c in place. The view's slices are
// capacity-capped: appending to one copies instead of writing into c.
// Readers only — c's rows must not change while the view is in use.
func (c *ColumnData) View(start, end int) *ColumnData {
	v := &ColumnData{Def: c.Def}
	switch c.Def.Type {
	case Int64Type, DateTimeType:
		v.Ints = c.Ints[start:end:end]
	case Float64Type:
		v.Floats = c.Floats[start:end:end]
	case StringType:
		v.Strs = c.Strs[start:end:end]
	case VectorType:
		d := c.Def.Dim
		v.Vecs = c.Vecs[start*d : end*d : end*d]
	}
	return v
}

// Vector returns row i of a vector column as a subslice.
func (c *ColumnData) Vector(i int) []float32 {
	d := c.Def.Dim
	return c.Vecs[i*d : (i+1)*d]
}

// ValueString renders row i for display and partition-key encoding.
func (c *ColumnData) ValueString(i int) string {
	switch c.Def.Type {
	case Int64Type, DateTimeType:
		return strconv.FormatInt(c.Ints[i], 10)
	case Float64Type:
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	case StringType:
		return c.Strs[i]
	case VectorType:
		return fmt.Sprintf("<vector dim=%d>", c.Def.Dim)
	}
	return ""
}

// RowBatch is a set of rows in columnar form — the unit flowing
// through ingestion and the executor.
type RowBatch struct {
	Schema *Schema
	Cols   []*ColumnData
}

// NewRowBatch allocates empty column buffers for the schema.
func NewRowBatch(schema *Schema) *RowBatch {
	cols := make([]*ColumnData, len(schema.Columns))
	for i, def := range schema.Columns {
		cols[i] = NewColumnData(def)
	}
	return &RowBatch{Schema: schema, Cols: cols}
}

// Len returns the row count (0 for an empty batch).
func (b *RowBatch) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Col returns the column buffer by name, or nil.
func (b *RowBatch) Col(name string) *ColumnData {
	i, _ := b.Schema.Col(name)
	if i < 0 {
		return nil
	}
	return b.Cols[i]
}

// View returns rows [start, end) of b in place: ColumnData.View of
// every column.
func (b *RowBatch) View(start, end int) *RowBatch {
	v := &RowBatch{Schema: b.Schema, Cols: make([]*ColumnData, len(b.Cols))}
	for i, c := range b.Cols {
		v.Cols[i] = c.View(start, end)
	}
	return v
}

// AppendRow copies row i of src (same schema) onto b.
func (b *RowBatch) AppendRow(src *RowBatch, i int) {
	for ci := range b.Cols {
		b.Cols[ci].AppendRow(src.Cols[ci], i)
	}
}

// Validate checks all columns have equal length and match the schema.
func (b *RowBatch) Validate() error {
	if len(b.Cols) != len(b.Schema.Columns) {
		return fmt.Errorf("storage: batch has %d columns, schema %d", len(b.Cols), len(b.Schema.Columns))
	}
	n := -1
	for i, c := range b.Cols {
		if c.Def.Name != b.Schema.Columns[i].Name {
			return fmt.Errorf("storage: column %d is %q, schema says %q", i, c.Def.Name, b.Schema.Columns[i].Name)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return fmt.Errorf("storage: column %q has %d rows, want %d", c.Def.Name, c.Len(), n)
		}
	}
	return nil
}
