package core

import (
	"context"
	"fmt"
	"testing"

	"blendhouse/internal/exec"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
)

// TestMemtableAnswersMatchFlushed: unflushed rows are read as a flat
// segment, so a query over a memtable (with deletes in it) returns the
// same ids and bitwise the same distances as over the flat segment
// FlushWAL cuts from it: under AutoIndex a segment under 1 024 rows is
// an exact flat one. Plans A, B and C (each forced), range search with
// and without LIMIT, scalar ORDER BY both ways and a shared-scan group
// of four are each answered before and after the flush.
func TestMemtableAnswersMatchFlushed(t *testing.T) {
	strategies := []plan.Strategy{plan.BruteForce, plan.PreFilter, plan.PostFilter}
	for _, strategy := range strategies {
		t.Run(strategy.String(), func(t *testing.T) {
			e := newEngine(t, Config{
				WAL:         noFlushWAL(),
				AutoIndex:   true,
				SegmentRows: 1000,
				Planner:     plan.PlannerConfig{ForceStrategy: &strategy},
			})
			defer e.Close()
			ds := logImages(t, e)
			mustExec(t, e, "DELETE FROM images WHERE id IN (3, 40, 41, 250, 499)")
			tab := e.Table("images")
			q := func(i int) string { return vecLit(ds.Queries.Row(i)) }
			stmts := []string{
				fmt.Sprintf("SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10", q(0)),
				fmt.Sprintf("SELECT id, label, dist FROM images WHERE label = 'animal' AND score < 0.8 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 15", q(1)),
				fmt.Sprintf("SELECT id FROM images WHERE L2Distance(embedding, %s) < 0.9", q(2)),
				fmt.Sprintf("SELECT id FROM images WHERE L2Distance(embedding, %s) < 0.9 ORDER BY L2Distance(embedding, %s) LIMIT 7", q(2), q(2)),
				"SELECT id, score FROM images WHERE label = 'city' ORDER BY score LIMIT 9",
				"SELECT id, score FROM images WHERE label = 'city' ORDER BY score DESC LIMIT 9",
			}
			answers := func() []string {
				var out []string
				for _, src := range stmts {
					res := mustExec(t, e, src)
					if len(res.Rows) == 0 {
						t.Fatalf("%.60s...: no rows", src)
					}
					out = append(out, fmt.Sprint(res.Rows))
				}
				group := make([]exec.GroupQuery, 4)
				for i := range group {
					st, err := sql.Parse(fmt.Sprintf("SELECT id, dist FROM images WHERE score > 0.1 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 12", q(3+i)))
					if err != nil {
						t.Fatal(err)
					}
					if group[i].Plan, err = e.Planner().Plan(st.(*sql.Select), tab); err != nil {
						t.Fatal(err)
					}
				}
				e.Executor("images").RunGroup(context.Background(), group)
				for _, g := range group {
					if g.Err != nil {
						t.Fatal(g.Err)
					}
					out = append(out, fmt.Sprint(g.Res.Rows))
				}
				return out
			}
			if tab.MemRows() != eN || tab.SegmentCount() != 0 {
				t.Fatalf("mem=%d segments=%d, want every row unflushed", tab.MemRows(), tab.SegmentCount())
			}
			before := answers()
			// Every snapshot of the memtable has its name: nothing keyed by
			// segment name may hold one.
			if held := e.Executor("images").LoadedIndexSegments(); len(held) != 0 {
				t.Fatalf("executor holds index handles %v for a memtable", held)
			}
			if err := tab.FlushWAL(); err != nil {
				t.Fatal(err)
			}
			if tab.MemRows() != 0 || tab.SegmentCount() != 1 {
				t.Fatalf("mem=%d segments=%d after flush, want one segment", tab.MemRows(), tab.SegmentCount())
			}
			if typ := tab.Segments()[0].IndexType; typ != "FLAT" {
				t.Fatalf("flushed segment's index is %q, want FLAT", typ)
			}
			after := answers()
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("answer %d differs across the flush:\nmemtable: %s\nflushed:  %s", i, before[i], after[i])
				}
			}
		})
	}
}

// TestIntColumnFloatLiterals: a float literal against an integer column
// admits exactly the rows a float64 comparison does, over stored rows
// and memtable rows alike, in a scalar scan and as a vector query's
// filter.
func TestIntColumnFloatLiterals(t *testing.T) {
	e := newEngine(t, Config{WAL: noFlushWAL()})
	defer e.Close()
	mustExec(t, e, "CREATE TABLE t (id UInt64, a Int64, v Array(Float32), INDEX ix v TYPE HNSW('DIM=2','M=8','SEED=1')) ORDER BY id")
	vals := []int64{-3, -2, 2, 3}
	mustExec(t, e, "INSERT INTO t VALUES (1, -3, [1,0]), (2, -2, [2,0]), (3, 2, [3,0]), (4, 3, [4,0])")
	if err := e.Table("t").FlushWAL(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (5, -3, [5,0]), (6, -2, [6,0]), (7, 2, [7,0]), (8, 3, [8,0])")
	for _, tc := range []struct {
		cond string
		want func(a float64) bool
	}{
		{"a < 2.5", func(a float64) bool { return a < 2.5 }},
		{"a >= 2.5", func(a float64) bool { return a >= 2.5 }},
		{"a = 2.5", func(a float64) bool { return a == 2.5 }},
		{"a != 2.5", func(a float64) bool { return a != 2.5 }},
		{"a > -2.5", func(a float64) bool { return a > -2.5 }},
		{"a < 1e30", func(a float64) bool { return a < 1e30 }},
		{"a > -1e30", func(a float64) bool { return a > -1e30 }},
		{"a IN (2.5, 3)", func(a float64) bool { return a == 3 }},
		{"a BETWEEN -2.5 AND 2.5", func(a float64) bool { return a >= -2.5 && a <= 2.5 }},
	} {
		var want []int64
		for id := int64(1); id <= 8; id++ {
			if tc.want(float64(vals[(id-1)%4])) {
				want = append(want, id)
			}
		}
		for _, src := range []string{
			"SELECT id FROM t WHERE " + tc.cond + " ORDER BY id",
			"SELECT id FROM t WHERE " + tc.cond + " ORDER BY L2Distance(v, [0,0]) LIMIT 100",
		} {
			res := mustExec(t, e, src)
			got := make([]int64, len(res.Rows))
			for i, row := range res.Rows {
				got[i] = row[0].(int64)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: ids %v, want %v", src, got, want)
			}
		}
	}
}
