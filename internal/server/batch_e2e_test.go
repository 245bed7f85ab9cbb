package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/core"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
)

// batchTestEngine is testEngine with the batching scheduler enabled:
// a wide formation window and a group cap matching the burst size, so
// a concurrent burst reliably forms one group.
func batchTestEngine(t testing.TB, maxGroup int) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{
		Store:       storage.NewMemStore(),
		SegmentRows: 25,
		Batch:       &batch.Config{Window: 250 * time.Millisecond, MaxGroup: maxGroup},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE items (
		id UInt64,
		label String,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE FLAT('DIM=%d')
	) ORDER BY id`, tDim))
	var b []byte
	b = append(b, "INSERT INTO items VALUES "...)
	for i := 0; i < 200; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		vp := make([]float32, tDim)
		for d := range vp {
			vp[d] = float32((i*7+d)%13) / 13
		}
		b = append(b, fmt.Sprintf("(%d, 'l%d', %s)", i, i%4, vecLit(vp))...)
	}
	mustExec(t, e, string(b))
	flush(t, e, "items")
	return e
}

func batchTestQuery(qi int) string {
	q := make([]float32, tDim)
	for d := range q {
		q[d] = float32((qi+d)%7) / 7
	}
	return fmt.Sprintf(`SELECT id, label, dist FROM items WHERE label = 'l1' ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q))
}

// TestServerBatchedQueriesMatchSolo drives a concurrent burst through
// client.Queries against a batching server and checks (a) the burst
// actually grouped — the shared-scan counters moved — and (b) every
// response is byte-identical to the same statement executed solo
// (QueryOptions.DisableBatch), the subsystem's core contract.
func TestServerBatchedQueriesMatchSolo(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 8
	e := batchTestEngine(t, n)
	s, c := startServer(t, e, Config{
		Admission: AdmissionConfig{MaxConcurrent: 2, MaxQueue: 64},
	})

	groupsBefore := obs.Default().Counter("bh.batch.groups").Value()
	groupedBefore := obs.Default().Counter("bh.batch.grouped_queries").Value()
	savedBefore := obs.Default().Counter("bh.batch.segment_scans_saved").Value()

	stmts := make([]string, n)
	for i := range stmts {
		stmts[i] = batchTestQuery(i)
	}
	results, errs := c.Queries(context.Background(), stmts)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}

	if d := obs.Default().Counter("bh.batch.groups").Value() - groupsBefore; d == 0 {
		t.Fatal("bh.batch.groups did not move: no group executed")
	}
	if d := obs.Default().Counter("bh.batch.grouped_queries").Value() - groupedBefore; d < 2 {
		t.Fatalf("bh.batch.grouped_queries moved by %d, want >= 2 (burst never grouped)", d)
	}
	if d := obs.Default().Counter("bh.batch.segment_scans_saved").Value() - savedBefore; d <= 0 {
		t.Fatalf("bh.batch.segment_scans_saved moved by %d, want > 0", d)
	}

	// Byte-identity against solo execution of the identical statements.
	for i, stmt := range stmts {
		want, err := e.Query(context.Background(), stmt, core.QueryOptions{DisableBatch: true})
		if err != nil {
			t.Fatalf("solo control %d: %v", i, err)
		}
		if len(results[i].Rows) != len(want.Rows) {
			t.Fatalf("statement %d: %d rows batched vs %d solo", i, len(results[i].Rows), len(want.Rows))
		}
		gotJSON, _ := json.Marshal(results[i].Rows)
		wantJSON, _ := json.Marshal(want.Rows)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("statement %d: batched result differs from solo\nbatched: %s\nsolo:    %s", i, gotJSON, wantJSON)
		}
	}

	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.Close()
	e.Close()
	testutil.CheckNoLeaks(t, before)
}

// TestServerSetBatchOff checks the session escape hatch: with
// SET batch = off the statements run through per-statement admission
// and the batch counters stay put.
func TestServerSetBatchOff(t *testing.T) {
	e := batchTestEngine(t, 8)
	defer e.Close()
	_, c := startServer(t, e, Config{})

	// Single-connection client so the SET sticks to the session.
	if err := c.Set(context.Background(), "batch", "off"); err != nil {
		t.Fatal(err)
	}
	queriesBefore := obs.Default().Counter("bh.batch.queries").Value()
	res, err := c.Query(context.Background(), batchTestQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if d := obs.Default().Counter("bh.batch.queries").Value() - queriesBefore; d != 0 {
		t.Fatalf("bh.batch.queries moved by %d with batching off", d)
	}
}
