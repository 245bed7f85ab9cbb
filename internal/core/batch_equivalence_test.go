package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/exec"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/testutil"
)

// The cost model's strategy choice depends on selectivity and on k (at
// k=1 it prefers post-filter, which is deliberately batch-ineligible —
// it shares no scan work). The equivalence suite is about the shared
// passes, so pin a strategy instead of inheriting whatever the cost
// model picks: pre-filter, and in TestBatchEquivalence brute force as
// well.
var equivStrategy = plan.PreFilter

// equivEngine builds a batching engine whose groups seal exactly when
// maxGroup members have joined (the window is far out), so equivalence
// runs form one deterministic group per burst; every plan is forced to
// strategy. The WAL memtable cap is set so the seed data straddles
// flushed segments AND live memtable rows — the shared scan must walk
// both.
func equivEngine(t *testing.T, maxGroup int, strategy plan.Strategy) *Engine {
	t.Helper()
	e := newEngine(t, Config{
		SegmentRows: 100,
		WAL:         &lsm.WALConfig{MaxMemRows: 150, MaxMemBytes: 1 << 40, FlushInterval: time.Hour},
		Batch:       &batch.Config{Window: 30 * time.Second, MaxGroup: maxGroup},
		Planner:     plan.PlannerConfig{ForceStrategy: &strategy},
	})
	seedImages(t, e)
	// The seed tripped the memtable cap, so a background flush is in
	// flight; wait for it to land in segments, then write a fresh tail
	// that stays memtable-resident (40 rows < MaxMemRows).
	tab := e.Table("images")
	deadline := time.Now().Add(10 * time.Second)
	for tab.SegmentCount() == 0 || tab.MemRows() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("seed never flushed: mem=%d segments=%d", tab.MemRows(), tab.SegmentCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	labels := []string{"animal", "city", "food"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO images VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := make([]float32, eDim)
		for d := range v {
			v[d] = float32((i*11+d*7)%19) / 19
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d, %g, %s)", 1000+i, labels[i%3], 2000+i, float64(i)/40, vecLit(v))
	}
	mustExec(t, e, sb.String())
	// Deletes on both sides of the flush boundary: the shared scan must
	// honor segment delete bitmaps and memtable tombstones.
	mustExec(t, e, `DELETE FROM images WHERE id IN (1, 5, 142, 300, 451, 499, 1003, 1021)`)
	if tab.MemRows() == 0 || tab.SegmentCount() == 0 {
		t.Fatalf("seed not mixed: mem=%d segments=%d, want both non-zero", tab.MemRows(), tab.SegmentCount())
	}
	return e
}

// equivQuery builds the i-th member statement of a compatibility class:
// identical predicate and metric, distinct query vector.
func equivQuery(i, k int) string {
	q := make([]float32, eDim)
	for d := range q {
		q[d] = float32((i*3+d*5)%17) / 17
	}
	return fmt.Sprintf(
		`SELECT id, label, score, dist FROM images WHERE label = 'animal' ORDER BY L2Distance(embedding, %s) AS dist LIMIT %d`,
		vecLit(q), k)
}

// TestBatchEquivalence is the subsystem's contract test: for every
// k × group-size combination, under each plan that groups — B
// (pre-filter) and A (brute force) — a concurrent burst executed as one
// shared-scan group returns byte-identical rows to the same statements
// executed in isolation (QueryOptions.DisableBatch), over a table with
// flushed segments, live memtable rows, and deletes in both.
func TestBatchEquivalence(t *testing.T) {
	strategies := []plan.Strategy{plan.PreFilter, plan.BruteForce}
	for _, g := range []int{2, 8, 32} {
		engines := make([]*Engine, len(strategies))
		for i, s := range strategies {
			engines[i] = equivEngine(t, g, s)
		}
		for _, k := range []int{1, 10, 100} {
			t.Run(fmt.Sprintf("group=%d/k=%d", g, k), func(t *testing.T) {
				for i, e := range engines {
					t.Run(strategies[i].String(), func(t *testing.T) { checkBurstEquivalence(t, e, g, k) })
				}
			})
		}
		for _, e := range engines {
			e.Close()
		}
	}
}

// checkBurstEquivalence runs g members of one compatibility class at k
// as a concurrent burst and compares each member's rows with the same
// statement run solo.
func checkBurstEquivalence(t *testing.T, e *Engine, g, k int) {
	grouped := obs.Default().Counter("bh.batch.grouped_queries")
	stmts := make([]string, g)
	for i := range stmts {
		stmts[i] = equivQuery(i, k)
	}
	groupedBefore := grouped.Value()
	got := make([]*exec.Result, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for i := range stmts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Query(context.Background(), stmts[i], QueryOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	// Groups seal on full (the window is 30s), so the whole burst must
	// have executed as shared-scan groups.
	if d := grouped.Value() - groupedBefore; d != int64(g) {
		t.Fatalf("grouped_queries moved by %d, want %d", d, g)
	}
	for i, stmt := range stmts {
		want, err := e.Query(context.Background(), stmt, QueryOptions{DisableBatch: true})
		if err != nil {
			t.Fatalf("solo control %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i].Columns, want.Columns) {
			t.Fatalf("member %d columns: %v vs solo %v", i, got[i].Columns, want.Columns)
		}
		if !reflect.DeepEqual(got[i].Rows, want.Rows) {
			t.Fatalf("member %d rows differ from solo execution\nbatched: %v\nsolo:    %v", i, got[i].Rows, want.Rows)
		}
	}
}

// TestBatchRangeAndProjectionEquivalence groups range queries with
// per-member radii, LIMITs and projections (including SELECT *): the
// compatibility key shares only the predicate class and metric, so one
// shared pass must honor each member's own radius and column list.
func TestBatchRangeAndProjectionEquivalence(t *testing.T) {
	e := equivEngine(t, 4, equivStrategy)
	defer e.Close()

	qv := func(i int) string {
		q := make([]float32, eDim)
		for d := range q {
			q[d] = float32((i*5+d*3)%13) / 13
		}
		return vecLit(q)
	}
	rangeStmt := func(cols string, i int, radius float64, limit int) string {
		return fmt.Sprintf(
			`SELECT %s FROM images WHERE label = 'city' AND L2Distance(embedding, %s) <= %g ORDER BY L2Distance(embedding, %s) AS dist LIMIT %d`,
			cols, qv(i), radius, qv(i), limit)
	}
	stmts := []string{
		rangeStmt("id, dist", 0, 2.0, 50),
		rangeStmt("*", 1, 2.5, 50),
		rangeStmt("id, score, dist", 2, 1.5, 50),
		rangeStmt("id, dist", 3, 2.0, 5),
	}

	grouped := obs.Default().Counter("bh.batch.grouped_queries")
	groupedBefore := grouped.Value()
	got := make([]*exec.Result, len(stmts))
	errs := make([]error, len(stmts))
	var wg sync.WaitGroup
	for i := range stmts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Query(context.Background(), stmts[i], QueryOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if d := grouped.Value() - groupedBefore; d != int64(len(stmts)) {
		t.Fatalf("grouped_queries moved by %d, want %d", d, len(stmts))
	}
	nonEmpty := 0
	for i, stmt := range stmts {
		want, err := e.Query(context.Background(), stmt, QueryOptions{DisableBatch: true})
		if err != nil {
			t.Fatalf("solo control %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i].Columns, want.Columns) {
			t.Fatalf("member %d columns: %v vs solo %v", i, got[i].Columns, want.Columns)
		}
		if !reflect.DeepEqual(got[i].Rows, want.Rows) {
			t.Fatalf("member %d rows differ from solo execution\nbatched: %v\nsolo:    %v", i, got[i].Rows, want.Rows)
		}
		if len(want.Rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every range query returned zero rows; radii too tight to prove anything")
	}
}

// TestBatchMemberCancelDoesNotPoisonGroup cancels one member of a
// forming group; the cancellation must surface only to that member,
// the survivors must still get solo-identical results, and nothing
// may leak.
func TestBatchMemberCancelDoesNotPoisonGroup(t *testing.T) {
	before := runtime.NumGoroutine()
	// MaxGroup above the burst size: the group stays open through the
	// window, leaving a span in which to cancel one member.
	e := newEngine(t, Config{
		SegmentRows: 100,
		Batch:       &batch.Config{Window: 400 * time.Millisecond, MaxGroup: 8},
		Planner:     plan.PlannerConfig{ForceStrategy: &equivStrategy},
	})
	seedImages(t, e)

	const n = 3
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
	}
	got := make([]*exec.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Query(ctxs[i], equivQuery(i, 10), QueryOptions{})
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the burst enroll
	cancels[0]()
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("canceled member: err = %v, want context.Canceled", errs[0])
	}
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		want, err := e.Query(context.Background(), equivQuery(i, 10), QueryOptions{DisableBatch: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Rows, want.Rows) {
			t.Fatalf("survivor %d rows differ from solo execution", i)
		}
	}
	e.Close()
	testutil.CheckNoLeaks(t, before)
}

// TestBatchMemberTimeoutDoesNotPoisonGroup is the deadline flavor: one
// member's statement timeout fires during formation while the rest of
// the group proceeds untouched.
func TestBatchMemberTimeoutDoesNotPoisonGroup(t *testing.T) {
	before := runtime.NumGoroutine()
	e := newEngine(t, Config{
		SegmentRows: 100,
		Batch:       &batch.Config{Window: 400 * time.Millisecond, MaxGroup: 8},
		Planner:     plan.PlannerConfig{ForceStrategy: &equivStrategy},
	})
	seedImages(t, e)

	const n = 3
	got := make([]*exec.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
				defer cancel()
			}
			got[i], errs[i] = e.Query(ctx, equivQuery(i, 10), QueryOptions{})
		}(i)
	}
	wg.Wait()

	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("timed-out member: err = %v, want context.DeadlineExceeded", errs[0])
	}
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		want, err := e.Query(context.Background(), equivQuery(i, 10), QueryOptions{DisableBatch: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Rows, want.Rows) {
			t.Fatalf("survivor %d rows differ from solo execution", i)
		}
	}
	e.Close()
	testutil.CheckNoLeaks(t, before)
}
