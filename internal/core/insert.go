package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

// insert executes an INSERT, converting literal rows (or a CSV file)
// into a columnar batch and handing it to the LSM engine — which
// performs partitioning, semantic bucketing and pipelined index
// building automatically, exactly as the paper's Example 1 promises
// ("BlendHouse handles partitioning and index building
// automatically"). With the WAL enabled the batch is group-committed
// to the durable log and is query-visible when this returns; segment
// cutting happens in the background flusher.
func (e *Engine) insert(ctx context.Context, ins *sql.Insert) (int, error) {
	t := e.Table(ins.Table)
	if t == nil {
		return 0, unknownTableErr(ins.Table)
	}
	var rows [][]any
	if ins.Infile != "" {
		var err error
		rows, err = readCSVRows(ins.Infile, t.Schema())
		if err != nil {
			return 0, err
		}
	} else {
		rows = ins.Rows
	}
	batch, err := BuildBatch(t.Schema(), rows)
	if err != nil {
		return 0, err
	}
	if err := t.InsertCtx(ctx, batch); err != nil {
		return 0, err
	}
	return batch.Len(), nil
}

// BuildBatch converts literal rows (schema order) into a columnar
// batch with type coercion: ints widen to floats, numeric strings are
// rejected (no implicit parsing), vectors must match the column
// dimension.
func BuildBatch(schema *storage.Schema, rows [][]any) (*storage.RowBatch, error) {
	batch := &storage.RowBatch{Schema: schema, Cols: make([]*storage.ColumnData, len(schema.Columns))}
	for ci, def := range schema.Columns {
		batch.Cols[ci] = storage.NewColumnDataCap(def, len(rows))
	}
	for ri, row := range rows {
		if len(row) != len(schema.Columns) {
			return nil, fmt.Errorf("core: row %d has %d values, schema has %d columns", ri, len(row), len(schema.Columns))
		}
		for ci, def := range schema.Columns {
			col := batch.Cols[ci]
			v := row[ci]
			switch def.Type {
			case storage.Int64Type, storage.DateTimeType:
				n, ok := coerceInt(v)
				if !ok {
					return nil, typeErr(ri, def, v)
				}
				col.Ints = append(col.Ints, n)
			case storage.Float64Type:
				f, ok := coerceFloat(v)
				if !ok {
					return nil, typeErr(ri, def, v)
				}
				col.Floats = append(col.Floats, f)
			case storage.StringType:
				s, ok := v.(string)
				if !ok {
					return nil, typeErr(ri, def, v)
				}
				col.Strs = append(col.Strs, s)
			case storage.VectorType:
				vecv, ok := v.([]float32)
				if !ok {
					return nil, typeErr(ri, def, v)
				}
				if len(vecv) != def.Dim {
					return nil, fmt.Errorf("core: row %d: vector for %q has dim %d, column dim %d", ri, def.Name, len(vecv), def.Dim)
				}
				col.Vecs = append(col.Vecs, vecv...)
			}
		}
	}
	return batch, nil
}

func typeErr(row int, def storage.ColumnDef, v any) error {
	return fmt.Errorf("core: row %d: value %v (%T) does not fit column %q %s", row, v, v, def.Name, def.Type)
}

func coerceInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case float64:
		if x == float64(int64(x)) {
			return int64(x), true
		}
	}
	return 0, false
}

func coerceFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// readCSVRows loads a CSV file whose columns follow the schema order.
// Vector cells hold semicolon-separated floats ("0.1;0.2;0.3").
func readCSVRows(path string, schema *storage.Schema) ([][]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening INFILE: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("core: reading INFILE: %w", err)
	}
	var rows [][]any
	for ri, rec := range records {
		if len(rec) != len(schema.Columns) {
			return nil, fmt.Errorf("core: csv line %d has %d fields, schema has %d columns", ri+1, len(rec), len(schema.Columns))
		}
		row := make([]any, len(rec))
		for ci, def := range schema.Columns {
			cell := rec[ci]
			switch def.Type {
			case storage.Int64Type, storage.DateTimeType:
				n, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("core: csv line %d column %q: %w", ri+1, def.Name, err)
				}
				row[ci] = n
			case storage.Float64Type:
				fl, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
				if err != nil {
					return nil, fmt.Errorf("core: csv line %d column %q: %w", ri+1, def.Name, err)
				}
				row[ci] = fl
			case storage.StringType:
				row[ci] = cell
			case storage.VectorType:
				parts := strings.Split(cell, ";")
				vecv := make([]float32, len(parts))
				for i, p := range parts {
					fl, err := strconv.ParseFloat(strings.TrimSpace(p), 32)
					if err != nil {
						return nil, fmt.Errorf("core: csv line %d vector %q: %w", ri+1, def.Name, err)
					}
					vecv[i] = float32(fl)
				}
				row[ci] = vecv
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
