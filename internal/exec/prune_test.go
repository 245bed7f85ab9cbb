package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/hnsw"
	"blendhouse/internal/lsm"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

// pruneFixture builds a table of 800 rows cut into segments of 100,
// filled in id order, so each segment holds a disjoint id range.
func pruneFixture(t *testing.T) (*lsm.Table, *lsm.Version, *dataset.Dataset) {
	t.Helper()
	const dim, n = 16, 800
	ds := dataset.Small(n, dim, 11)
	tab, err := lsm.Create(storage.NewMemStore(), lsm.Options{
		Name: "imgs",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "embedding", Type: storage.VectorType, Dim: dim},
		}},
		IndexColumn: "embedding", IndexType: index.HNSW,
		SegmentRows: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := storage.NewRowBatch(tab.Schema())
	for i := 0; i < n; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
		batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Row(i)...)
	}
	ingest(t, tab, batch)
	v, _ := tab.Acquire()
	t.Cleanup(v.Release)
	return tab, v, ds
}

func compileAll(t *testing.T, schema *storage.Schema, preds ...sql.Predicate) []compiledPred {
	t.Helper()
	cps, err := compilePredicates(schema, preds)
	if err != nil {
		t.Fatal(err)
	}
	return cps
}

func TestPruneSegmentsScalar(t *testing.T) {
	tab, v, _ := pruneFixture(t)
	segs := v.Segments
	// id ranges are disjoint per segment (sequential fill): prune to
	// ranges covering only low ids.
	kept, _ := pruneSegments(segs, compileAll(t, tab.Schema(),
		sql.Predicate{Column: "id", Op: sql.OpBetween, Value: int64(0), Value2: int64(150)}), "", nil, 0)
	if len(kept) >= len(segs) {
		t.Fatalf("no pruning happened: %d of %d", len(kept), len(segs))
	}
	for _, s := range kept {
		if s.Meta.MinInt["id"] > 150 {
			t.Fatal("kept a segment entirely above the range")
		}
	}
	// Unknown column: nothing pruned.
	all, _ := pruneSegments(segs, []compiledPred{{col: "zz", intRange: &[2]int64{0, 1}}}, "", nil, 0)
	if len(all) != len(segs) {
		t.Fatal("missing stats must not prune")
	}
}

func TestPruneSegmentsSemantic(t *testing.T) {
	_, v, ds := pruneFixture(t)
	segs := v.Segments
	q := ds.Queries.Row(0)
	kept, cut := pruneSegments(segs, nil, "", q, 0.5)
	if len(kept) >= len(segs) || len(kept) == 0 || !cut {
		t.Fatalf("semantic cut kept %d of %d (cut=%v)", len(kept), len(segs), cut)
	}
	// Kept segments must be the nearest-centroid ones.
	for _, ks := range kept {
		for _, os := range segs {
			if slices.Contains(kept, os) {
				continue
			}
			if centDist(q, os.Meta.Centroid) < centDist(q, ks.Meta.Centroid) {
				t.Fatalf("pruned a closer segment (%s) while keeping %s", os.Meta.Name, ks.Meta.Name)
			}
		}
	}
}

func centDist(q, c []float32) float32 {
	var s float32
	for i := range q {
		d := q[i] - c[i]
		s += d * d
	}
	return s
}

func TestPruneSegmentsPartition(t *testing.T) {
	_, v, _ := pruneFixture(t)
	segs := v.Segments
	other, own := "elsewhere", ""
	kept, _ := pruneSegments(segs, []compiledPred{{col: "p", eqString: &other}}, "p", nil, 0)
	if len(kept) != 0 {
		t.Fatal("another partition's equality should prune everything")
	}
	kept, _ = pruneSegments(segs, []compiledPred{{col: "p", eqString: &own}}, "p", nil, 0)
	if len(kept) != len(segs) {
		t.Fatal("matching partition should keep all")
	}
}

// TestPruneIntersectsConstraints: every constraint on a column narrows
// the kept set, in either conjunct order — a second range on a column
// never widens or replaces the first, an equality to 0 is a real
// bound, and two equalities on the partition column keep only what
// both admit.
func TestPruneIntersectsConstraints(t *testing.T) {
	schema := &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "x", Type: storage.Int64Type},
		{Name: "f", Type: storage.Float64Type},
		{Name: "p", Type: storage.StringType},
	}}
	seg := func(name, part string, lo int64) *lsm.Segment {
		return &lsm.Segment{Meta: &storage.SegmentMeta{
			Name: name, Partition: part,
			MinInt: map[string]int64{"x": lo}, MaxInt: map[string]int64{"x": lo + 9},
			MinFloat: map[string]float64{"f": float64(lo)}, MaxFloat: map[string]float64{"f": float64(lo + 9)},
		}}
	}
	segs := []*lsm.Segment{seg("s0", "a", 0), seg("s1", "b", 10), seg("s2", "a", 20)}
	pred := func(col string, op sql.PredOp, v any) sql.Predicate {
		return sql.Predicate{Column: col, Op: op, Value: v}
	}
	between := func(col string, lo, hi any) sql.Predicate {
		return sql.Predicate{Column: col, Op: sql.OpBetween, Value: lo, Value2: hi}
	}
	for _, tc := range []struct {
		name  string
		preds []sql.Predicate
		want  string
	}{
		{"int ranges narrow", []sql.Predicate{between("x", int64(0), int64(15)), between("x", int64(12), int64(25))}, "[s1]"},
		{"int eq 0 is a bound", []sql.Predicate{pred("x", sql.OpEq, int64(0)), pred("x", sql.OpLe, int64(15))}, "[s0]"},
		{"int eq 0 contradicts", []sql.Predicate{pred("x", sql.OpEq, int64(0)), pred("x", sql.OpGe, int64(5))}, "[]"},
		{"int empty between", []sql.Predicate{between("x", int64(9), int64(3)), pred("x", sql.OpGe, int64(0))}, "[]"},
		{"float ranges narrow", []sql.Predicate{pred("f", sql.OpGe, 12.0), pred("f", sql.OpLe, 25.0)}, "[s1 s2]"},
		{"float ranges contradict", []sql.Predicate{pred("f", sql.OpGe, 5.0), pred("f", sql.OpLe, 1.0)}, "[]"},
		{"partition eqs agree", []sql.Predicate{pred("p", sql.OpEq, "a"), pred("p", sql.OpEq, "a")}, "[s0 s2]"},
		{"partition eqs contradict", []sql.Predicate{pred("p", sql.OpEq, "a"), pred("p", sql.OpEq, "b")}, "[]"},
		{"columns combine", []sql.Predicate{pred("x", sql.OpGe, int64(5)), pred("f", sql.OpLe, 15.0), pred("p", sql.OpEq, "b")}, "[s1]"},
	} {
		for _, order := range []string{"forward", "reversed"} {
			preds := append([]sql.Predicate(nil), tc.preds...)
			if order == "reversed" {
				for i, j := 0, len(preds)-1; i < j; i, j = i+1, j-1 {
					preds[i], preds[j] = preds[j], preds[i]
				}
			}
			kept, _ := pruneSegments(segs, compileAll(t, schema, preds...), "p", nil, 0)
			names := make([]string, len(kept))
			for i, s := range kept {
				names[i] = s.Meta.Name
			}
			if got := fmt.Sprint(names); got != tc.want {
				t.Errorf("%s (%s): kept %s, want %s", tc.name, order, got, tc.want)
			}
		}
	}
}

// ingest writes b through tab's write-ahead log, as serve does; closing
// the log flushes the rows into segments and leaves tab read-only.
func ingest(t testing.TB, tab *lsm.Table, b *storage.RowBatch) {
	t.Helper()
	if err := tab.EnableWAL(lsm.WALConfig{}); err != nil {
		t.Fatal(err)
	}
	err := tab.Insert(context.Background(), b)
	if cerr := tab.CloseWAL(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}
