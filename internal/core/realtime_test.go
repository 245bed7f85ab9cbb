package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
	"blendhouse/internal/vec"
)

// noFlushWAL keeps every row in the memtable until the engine closes,
// so tests can observe the pre-flush state.
func noFlushWAL() *lsm.WALConfig {
	return &lsm.WALConfig{MaxMemRows: 1 << 20, FlushInterval: time.Hour}
}

// TestWALFreshRowsInTopK: with the real-time write path on, an INSERT
// is query-visible the moment it returns — before any segment or index
// exists — and ranks correctly against indexed segment rows.
func TestWALFreshRowsInTopK(t *testing.T) {
	before := runtime.NumGoroutine()
	e := newEngine(t, Config{WAL: noFlushWAL()})
	ds := logImages(t, e)
	// Everything acknowledged, nothing flushed.
	tab := e.Table("images")
	if tab.MemRows() != eN || tab.SegmentCount() != 0 {
		t.Fatalf("mem=%d segments=%d, want all %d rows unflushed", tab.MemRows(), tab.SegmentCount(), eN)
	}
	q := ds.Queries.Row(0)
	res := mustExec(t, e, fmt.Sprintf(
		`SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q)))
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// Memtable scans are exact, so top-10 must equal the oracle.
	truth := ds.GroundTruth(vec.L2, 10, nil)
	want := map[int64]bool{}
	for _, id := range truth[0] {
		want[id] = true
	}
	for _, row := range res.Rows {
		if !want[row[0].(int64)] {
			t.Fatalf("memtable top-10 returned id %d not in exact top-10", row[0])
		}
	}
	// A row inserted right now is immediately rank 1 at distance 0.
	mustExec(t, e, fmt.Sprintf("INSERT INTO images VALUES (9999, 'fresh', 1, 0.5, %s)", vecLit(q)))
	res = mustExec(t, e, fmt.Sprintf(
		`SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 1`, vecLit(q)))
	if id := res.Rows[0][0].(int64); id != 9999 {
		t.Fatalf("freshest row not rank 1: got id %d", id)
	}
	if d := res.Rows[0][1].(float64); d != 0 {
		t.Fatalf("exact-match distance = %v, want 0", d)
	}
	// Scalar filters and DELETE see memtable rows too.
	res = mustExec(t, e, "SELECT id FROM images WHERE label = 'fresh' ORDER BY id LIMIT 5")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 9999 {
		t.Fatalf("scalar query over memtable: %v", res.Rows)
	}
	mustExec(t, e, "DELETE FROM images WHERE id IN (9999)")
	res = mustExec(t, e, fmt.Sprintf(
		`SELECT id FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 1`, vecLit(q)))
	if id := res.Rows[0][0].(int64); id == 9999 {
		t.Fatal("deleted memtable row still in top-k")
	}
	e.Close()
	testutil.CheckNoLeaks(t, before)
}

// TestWALEngineCloseThenReopen: Engine.Close drains every table's
// memtable into segments, so a second engine over the same store
// answers the same query with byte-identical results.
func TestWALEngineCloseThenReopen(t *testing.T) {
	before := runtime.NumGoroutine()
	store := storage.NewMemStore()
	e := newEngine(t, Config{Store: store, WAL: noFlushWAL()})
	ds := seedImages(t, e)
	mustExec(t, e, "DELETE FROM images WHERE id IN (3, 77)")
	q := ds.Queries.Row(1)
	sel := fmt.Sprintf(`SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q))
	wantRes := mustExec(t, e, sel)
	e.Close()

	re := newEngine(t, Config{Store: store, WAL: noFlushWAL()})
	tab := re.Table("images")
	if tab == nil {
		t.Fatal("table lost on reopen")
	}
	if tab.MemRows() != 0 || tab.Rows() != eN-2 {
		t.Fatalf("reopened: mem=%d rows=%d, want 0/%d", tab.MemRows(), tab.Rows(), eN-2)
	}
	gotRes, err := re.Exec(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRes.Rows) != len(wantRes.Rows) {
		t.Fatalf("reopened rows = %d, want %d", len(gotRes.Rows), len(wantRes.Rows))
	}
	for i := range wantRes.Rows {
		if gotRes.Rows[i][0] != wantRes.Rows[i][0] || gotRes.Rows[i][1] != wantRes.Rows[i][1] {
			t.Fatalf("row %d differs after reopen: %v vs %v", i, gotRes.Rows[i], wantRes.Rows[i])
		}
	}
	re.Close()
	testutil.CheckNoLeaks(t, before)
}
