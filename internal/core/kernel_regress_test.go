package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"blendhouse/internal/exec"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/vec"
	"blendhouse/pkg/api"
)

// A query vector whose length differs from the column's declared
// dimension is the statement's fault: the SQL path must answer with
// the plan class (→ 4xx at the server), never a slice-bounds panic
// from a distance kernel.
func TestDimMismatchIsPlanError(t *testing.T) {
	e := newEngine(t, Config{})
	defer e.Close()
	seedImages(t, e)

	for _, src := range []string{
		"SELECT id FROM images ORDER BY L2Distance(embedding, [1.0, 2.0]) LIMIT 5",
		"SELECT id FROM images ORDER BY L2Distance(embedding, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) LIMIT 5",
	} {
		_, err := e.Query(context.Background(), src, QueryOptions{})
		if !errors.Is(err, api.ErrPlan) {
			t.Fatalf("%s: err = %v, want ErrPlan", src, err)
		}
		if !strings.Contains(err.Error(), "dim") {
			t.Fatalf("%s: error should name the dimension mismatch: %v", src, err)
		}
	}
}

// Plans constructed directly (bypassing the planner's validation) must
// hit the executor's own dimension check. Before that check existed,
// an over-long query vector panicked inside the kernels instead of
// returning an error.
func TestDirectPlanDimMismatchNoPanic(t *testing.T) {
	e := newEngine(t, Config{})
	defer e.Close()
	seedImages(t, e)

	for _, strat := range []plan.Strategy{plan.BruteForce, plan.PreFilter, plan.PostFilter} {
		badQ := make([]float32, eDim+4) // longer than the column dim
		lg := &plan.Logical{
			Table:        "images",
			Projection:   []string{"id"},
			Distance:     &sql.DistanceExpr{Func: "L2Distance", Column: "embedding", Query: badQ},
			Metric:       vec.L2,
			K:            5,
			VectorColumn: "embedding",
		}
		_, err := e.Executor("images").Run(context.Background(), &plan.Physical{Logical: lg, Strategy: strat})
		if !errors.Is(err, exec.ErrInvalidQuery) {
			t.Fatalf("strategy %v: err = %v, want exec.ErrInvalidQuery", strat, err)
		}
	}
}

// Steady-state vector queries must not allocate proportionally to the
// scanned rows, the segments touched or the query dimension: the top-k
// heaps, candidate buffers and row-offset scratch are pooled, the
// statement is lexed without a string per token, and result assembly
// builds positional slices and one backing array of cells. What is
// left is a small fixed overhead (AST, plan, result rows, boxed
// values). The table runs as shipped, WAL on, its memtable flushed and
// empty: a query must not pay for a snapshot of nothing (ten
// allocations before View asked the memtable its length first), nor for
// a SegmentReader per column fetch (the table hands out one per
// segment). The budget is the measured count (54, of which one per
// segment is the candidates an index search returns) plus 20 %: it
// exists to catch the hot path regressing to per-row, per-segment or
// per-token allocation. A traced statement (TraceSample 1, as the CLI
// and the benchmark run) adds its span tree and trace record: measured
// 86, budget 103.
func TestVectorQueryAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the bound holds only without it")
	}
	for _, c := range []struct {
		sample int
		budget float64
	}{
		{0, 65},
		{1, 103},
	} {
		e := newEngine(t, Config{WAL: noFlushWAL(), TraceSample: c.sample})
		ds := seedImages(t, e)
		if err := e.Table("images").FlushWAL(); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		src := "SELECT id FROM images ORDER BY L2Distance(embedding, " + vecLit(ds.Queries.Row(0)) + ") LIMIT 10"
		// Warm the segment index/column caches and the scratch pools.
		for i := 0; i < 3; i++ {
			if _, err := e.Query(ctx, src, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := e.Query(ctx, src, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		e.Close()
		if allocs > c.budget {
			t.Fatalf("TraceSample=%d: steady-state vector query allocates %v, budget %v", c.sample, allocs, c.budget)
		}
	}
}

// A memtable is read as one more flat segment, so the same steady-state
// top-10 over a table with unflushed rows pays only for that segment:
// its snapshot (meta, columns, reader, flat view, delete bitmap), one
// index search and its column fetch. Set-up: seedImages, flushed, then
// 24 INSERTs of 32 rows left in the memtable with three of them
// deleted. The bound is the measured delta of the per-row memtable
// scan this replaced (54 → 79 allocations, +25); the segment measures
// 54 → 72.
func TestMemtableQueryAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the bound holds only without it")
	}
	e := newEngine(t, Config{WAL: noFlushWAL()})
	defer e.Close()
	ds := seedImages(t, e)
	if err := e.Table("images").FlushWAL(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := "SELECT id FROM images ORDER BY L2Distance(embedding, " + vecLit(ds.Queries.Row(0)) + ") LIMIT 10"
	steady := func() float64 {
		for i := 0; i < 3; i++ { // warm index handles, column cache, pools
			if _, err := e.Query(ctx, src, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := e.Query(ctx, src, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	flushed := steady()
	for b := 0; b < 24; b++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO images VALUES ")
		for r := 0; r < 32; r++ {
			id := 1000 + 32*b + r
			if r > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 'fresh', %d, 0.5, %s)", id, 2000+id, vecLit(ds.Vectors.Row(id%eN)))
		}
		mustExec(t, e, sb.String())
	}
	mustExec(t, e, "DELETE FROM images WHERE id IN (1001, 1400, 1767)")
	if n := e.Table("images").MemRows(); n != 24*32 {
		t.Fatalf("memtable holds %d rows, want %d", n, 24*32)
	}
	withMem := steady()
	const budget = 25
	if d := withMem - flushed; d > budget {
		t.Fatalf("a memtable adds %v allocations to a steady-state query (%v → %v), budget %v", d, flushed, withMem, budget)
	}
}

// Result rows are cut from one backing array of cells; each must be
// capacity-limited, so a caller that appends to a row (a client adding
// a computed column) cannot write into the row after it.
func TestResultRowsDoNotShareCapacity(t *testing.T) {
	e := newEngine(t, Config{})
	defer e.Close()
	ds := seedImages(t, e)
	res, err := e.Query(context.Background(),
		"SELECT id, label, d FROM images ORDER BY L2Distance(embedding, "+vecLit(ds.Queries.Row(1))+") AS d LIMIT 5", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	next := res.Rows[1][0]
	grown := append(res.Rows[0], "extra")
	if len(grown) != 4 || res.Rows[1][0] != next {
		t.Fatalf("appending to row 0 overwrote row 1: %v", res.Rows[1])
	}
}
