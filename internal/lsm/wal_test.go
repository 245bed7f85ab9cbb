package lsm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
)

// walTestConfig disables every automatic flush trigger so tests control
// exactly when memtables drain.
func walTestConfig() WALConfig {
	return WALConfig{MaxMemRows: 1 << 20, FlushInterval: time.Hour}
}

// crashWAL simulates a process crash after acknowledgment: it stops the
// committer and flusher WITHOUT the final flush CloseWAL would run, so
// acknowledged rows exist only in the WAL blobs — exactly the state a
// SIGKILL leaves behind (the in-memory memtable dies with the process).
func crashWAL(tab *Table) { tab.stopWAL() }

// tableContents fingerprints every alive row visible to a query —
// segment rows minus delete bitmaps plus live memtable rows — sorted,
// so two tables can be compared for byte-identical query results.
func tableContents(t *testing.T, tab *Table) []string {
	t.Helper()
	v, segs := tab.Acquire()
	defer v.Release()
	return versionContents(t, segs)
}

// versionContents is tableContents read through the segments one
// Acquire returned: stored and memtable segments alike, each through
// its reader, less its delete bitmap.
func versionContents(t *testing.T, segs []*Segment) []string {
	t.Helper()
	var out []string
	for _, s := range segs {
		var cols [4]*storage.ColumnData
		for i, name := range []string{"id", "label", "score", "embedding"} {
			c, err := s.Reader.ReadColumn(name)
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = c
		}
		for r := 0; r < s.Meta.Rows; r++ {
			if s.Deletes != nil && s.Deletes.Test(r) {
				continue
			}
			out = append(out, fmt.Sprintf("%d|%s|%.9f|%v", cols[0].Ints[r], cols[1].Strs[r], cols[2].Floats[r], cols[3].Vector(r)))
		}
	}
	sort.Strings(out)
	return out
}

func equalContents(t *testing.T, want, got []string, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d differs:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// TestWALFreshnessAndFlush: acknowledged rows are query-visible through
// the memtable before any segment exists, and a flush moves them —
// losslessly — into L0 segments and truncates the log.
func TestWALFreshnessAndFlush(t *testing.T) {
	before := runtime.NumGoroutine()
	tab, ds := newTestTable(t, testOptions("t"))
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(context.Background(), fillBatch(t, tab.Options(), ds, 0, 250)); err != nil {
		t.Fatal(err)
	}
	// Acked ⇒ visible, before any segment is cut.
	if tab.SegmentCount() != 0 {
		t.Fatalf("segments before flush = %d, want 0", tab.SegmentCount())
	}
	if tab.MemRows() != 250 {
		t.Fatalf("mem rows = %d, want 250", tab.MemRows())
	}
	fresh := tableContents(t, tab)
	if len(fresh) != 250 {
		t.Fatalf("view rows = %d, want 250", len(fresh))
	}
	// Acked ⇒ durable: the rows are already in WAL blobs.
	if keys, _ := tab.Store().List("tables/t/wal/"); len(keys) == 0 {
		t.Fatal("no WAL blobs after acknowledged insert")
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if tab.MemRows() != 0 || tab.Rows() != 250 {
		t.Fatalf("after flush: mem=%d segment rows=%d", tab.MemRows(), tab.Rows())
	}
	if tab.SegmentCount() != 2 { // 250 rows / 200 per segment
		t.Fatalf("segments after flush = %d, want 2", tab.SegmentCount())
	}
	if tab.FlushedLSN() == 0 {
		t.Fatal("flushedLSN not advanced")
	}
	// Identical contents across the flush boundary, and the flushed
	// segments carry indexes like any ingest.
	equalContents(t, fresh, tableContents(t, tab), "post-flush view")
	for _, m := range tab.Segments() {
		if _, err := tab.OpenIndex(m.Name); err != nil {
			t.Fatalf("flushed segment %s has no index: %v", m.Name, err)
		}
	}
	// The log below the watermark is gone.
	if keys, _ := tab.Store().List("tables/t/wal/"); len(keys) != 0 {
		t.Fatalf("WAL not truncated after flush: %v", keys)
	}
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckNoLeaks(t, before)
}

// TestWALCrashRecovery: every acknowledged write — inserts and a
// delete — survives a crash that loses the memtable, because lsm.Open
// replays the WAL above the manifest's flushed watermark.
func TestWALCrashRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	store := storage.NewMemStore()
	opts := testOptions("t")
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Small(lN, lDim, 3)
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := tab.Insert(ctx, fillBatch(t, opts, ds, i*80, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := tab.DeleteByKey(ctx, "id", []int64{5, 100}); err != nil || n != 2 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	want := tableContents(t, tab)
	if len(want) != 238 {
		t.Fatalf("pre-crash rows = %d, want 238", len(want))
	}
	crashWAL(tab)

	re, err := Open(store, "t")
	if err != nil {
		t.Fatal(err)
	}
	if re.Rows() != 238 {
		t.Fatalf("recovered rows = %d, want 238", re.Rows())
	}
	equalContents(t, want, tableContents(t, re), "recovered contents")
	// Recovery persisted the watermark and truncated the replayed log,
	// so a second recovery is a no-op with identical results.
	if re.FlushedLSN() == 0 {
		t.Fatal("recovery did not persist flushedLSN")
	}
	if keys, _ := store.List("tables/t/wal/"); len(keys) != 0 {
		t.Fatalf("WAL not truncated after recovery: %v", keys)
	}
	re2, err := Open(store, "t")
	if err != nil {
		t.Fatal(err)
	}
	equalContents(t, want, tableContents(t, re2), "second recovery")
	// The recovered table accepts a fresh WAL session.
	if err := re.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := re.Insert(ctx, fillBatch(t, opts, ds, 500, 10)); err != nil {
		t.Fatal(err)
	}
	if got := len(tableContents(t, re)); got != 248 {
		t.Fatalf("rows after post-recovery insert = %d, want 248", got)
	}
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckNoLeaks(t, before)
}

// TestWALDeleteSpansMemtableAndSegments: one DELETE statement must hit
// rows wherever they live — flushed segments and unflushed memtables —
// and the marks must survive the flush.
func TestWALDeleteSpansMemtableAndSegments(t *testing.T) {
	before := runtime.NumGoroutine()
	tab, ds := newTestTable(t, testOptions("t"))
	opts := tab.Options()
	// 200 rows flushed → segments.
	ingest(t, tab, fillBatch(t, opts, ds, 0, 200))
	// 100 more rows, not flushed → memtable.
	ctx := context.Background()
	if err := tab.Insert(ctx, fillBatch(t, opts, ds, 200, 100)); err != nil {
		t.Fatal(err)
	}
	// One key in a segment, one in the memtable.
	if n, err := tab.DeleteByKey(ctx, "id", []int64{10, 250}); err != nil || n != 2 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if got := len(tableContents(t, tab)); got != 298 {
		t.Fatalf("view rows = %d, want 298", got)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 298 || tab.MemRows() != 0 {
		t.Fatalf("after flush: rows=%d mem=%d", tab.Rows(), tab.MemRows())
	}
	// Deleting an already-deleted key is still idempotent through the WAL.
	if n, err := tab.DeleteByKey(ctx, "id", []int64{10}); err != nil || n != 0 {
		t.Fatalf("re-delete: n=%d err=%v", n, err)
	}
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckNoLeaks(t, before)
}

// TestWALConcurrentInsertsDurable: many writers racing group commit,
// size-triggered flushes and backpressure must not lose or duplicate a
// single acknowledged row, and every goroutine drains on CloseWAL.
func TestWALConcurrentInsertsDurable(t *testing.T) {
	before := runtime.NumGoroutine()
	tab, ds := newTestTable(t, testOptions("t"))
	opts := tab.Options()
	cfg := WALConfig{MaxMemRows: 50, FlushInterval: 20 * time.Millisecond}
	if err := tab.EnableWAL(cfg); err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		batches = 5
		perOp   = 10
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				start := (w*batches + b) * perOp
				if err := tab.Insert(context.Background(), fillBatch(t, opts, ds, start, perOp)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	const total = writers * batches * perOp
	if tab.Rows() != total || tab.MemRows() != 0 {
		t.Fatalf("rows=%d mem=%d, want %d flushed rows", tab.Rows(), tab.MemRows(), total)
	}
	// No duplicates: every id 0..total-1 appears exactly once.
	seen := map[int64]int{}
	for _, s := range liveSegments(tab) {
		rd := s.Reader
		ids, err := rd.ReadColumn("id")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids.Ints {
			seen[id]++
		}
	}
	if len(seen) != total {
		t.Fatalf("distinct ids = %d, want %d", len(seen), total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %d appears %d times", id, n)
		}
	}
	testutil.CheckNoLeaks(t, before)
}

// failPuts points storage.FaultStore's hook at a per-key Put failure
// predicate (nil clears it), simulating partial storage outages
// mid-flush and mid-recovery. The test-local flaky store this file used
// to carry was promoted into storage.FaultStore; the hook keeps the
// same settable-predicate ergonomics.
func failPuts(fs *storage.FaultStore, pred func(string) bool) {
	if pred == nil {
		fs.SetHook(nil)
		return
	}
	fs.SetHook(func(op storage.FaultOp, key string) error {
		if op == storage.FaultOpPut && pred(key) {
			return &storage.TransientError{Err: fmt.Errorf("injected Put failure on %s", key)}
		}
		return nil
	})
}

func isSegmentKey(key string) bool  { return strings.Contains(key, "/segments/") }
func isManifestKey(key string) bool { return strings.HasSuffix(key, "manifest.json") }

// TestWALDeleteCannotTruncateUnflushedInserts: a DELETE's LSN must not
// raise a sealed memtable's watermark past its own inserts. Otherwise
// this sequence loses acknowledged rows: a flush error leaves M1
// sealed, newer inserts land in M2, a delete marks rows in both, and
// the next flush run — which flushes M1 first, then dies before M2 —
// would persist the delete's LSN as the watermark and truncate the WAL
// records of M2's rows, so a crash loses them despite the ack.
func TestWALDeleteCannotTruncateUnflushedInserts(t *testing.T) {
	before := runtime.NumGoroutine()
	mem := storage.NewMemStore()
	fs := storage.NewFaultStore(mem, storage.FaultConfig{Seed: 1})
	opts := testOptions("t")
	tab, err := Create(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Small(lN, lDim, 3)
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// M1: rows 0..99 (WAL record LSN 1).
	if err := tab.Insert(ctx, fillBatch(t, opts, ds, 0, 100)); err != nil {
		t.Fatal(err)
	}
	// Its flush fails at the segment write, leaving M1 sealed.
	failPuts(fs, isSegmentKey)
	if err := tab.FlushWAL(); err == nil {
		t.Fatal("flush with failing segment writes should error")
	}
	failPuts(fs, nil)
	// M2 (the new active memtable): rows 100..199 (LSN 2).
	if err := tab.Insert(ctx, fillBatch(t, opts, ds, 100, 100)); err != nil {
		t.Fatal(err)
	}
	// Delete a row buffered in sealed M1 (LSN 3).
	if n, err := tab.DeleteByKey(ctx, "id", []int64{5}); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	// Next flush run: M1 flushes and truncates its own records, then
	// M2's flush dies at the manifest write — the review scenario's
	// crash point.
	var manifestPuts int32
	failPuts(fs, func(key string) bool {
		return isManifestKey(key) && atomic.AddInt32(&manifestPuts, 1) >= 2
	})
	if err := tab.FlushWAL(); err == nil {
		t.Fatal("flush with failing second manifest write should error")
	}
	failPuts(fs, nil)
	// The WAL must still hold M2's insert and the delete.
	if keys, _ := mem.List("tables/t/wal/"); len(keys) == 0 {
		t.Fatal("WAL records of the unflushed memtable were truncated")
	}
	crashWAL(tab)
	re, err := Open(mem, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tableContents(t, re)); got != 199 {
		t.Fatalf("recovered rows = %d, want 199 (acknowledged inserts above a flushed delete LSN were lost)", got)
	}
	testutil.CheckNoLeaks(t, before)
}

// TestWALRecoveryManifestAtomic: crash recovery must commit replayed
// segments and the advanced watermark in one manifest write. Per-batch
// manifest writes under the old watermark would, after a crash mid-
// recovery, leave segments durable that the next Open replays again —
// duplicating acknowledged rows.
func TestWALRecoveryManifestAtomic(t *testing.T) {
	before := runtime.NumGoroutine()
	mem := storage.NewMemStore()
	fs := storage.NewFaultStore(mem, storage.FaultConfig{Seed: 1})
	opts := testOptions("t")
	tab, err := Create(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Small(lN, lDim, 3)
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// insert / delete / insert: the delete cuts the replay into two
	// ingest batches, the shape that used to write two manifests.
	if err := tab.Insert(ctx, fillBatch(t, opts, ds, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if n, err := tab.DeleteByKey(ctx, "id", []int64{5}); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := tab.Insert(ctx, fillBatch(t, opts, ds, 100, 50)); err != nil {
		t.Fatal(err)
	}
	want := tableContents(t, tab)
	if len(want) != 149 {
		t.Fatalf("pre-crash rows = %d, want 149", len(want))
	}
	crashWAL(tab)
	var manifestPuts int32
	failPuts(fs, func(key string) bool {
		return isManifestKey(key) && atomic.AddInt32(&manifestPuts, 1) >= 2
	})
	re, err := Open(fs, "t")
	if err != nil {
		t.Fatalf("recovery is not a single atomic manifest update: %v", err)
	}
	failPuts(fs, nil)
	if n := atomic.LoadInt32(&manifestPuts); n != 1 {
		t.Fatalf("recovery wrote the manifest %d times, want exactly 1", n)
	}
	equalContents(t, want, tableContents(t, re), "recovered contents")
	testutil.CheckNoLeaks(t, before)
}

// TestWALPartialFlushFailureWakesBlockedWriters: when a flush run
// retires some memtables and then fails on a later one, writers blocked
// on backpressure must still be woken — the space they are waiting for
// exists.
func TestWALPartialFlushFailureWakesBlockedWriters(t *testing.T) {
	before := runtime.NumGoroutine()
	mem := storage.NewMemStore()
	fs := storage.NewFaultStore(mem, storage.FaultConfig{Seed: 1})
	opts := testOptions("t")
	tab, err := Create(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Small(lN, lDim, 3)
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two failed flushes fill the sealed backlog to its cap.
	failPuts(fs, isSegmentKey)
	for i := 0; i < 2; i++ {
		if err := tab.Insert(ctx, fillBatch(t, opts, ds, i*50, 50)); err != nil {
			t.Fatal(err)
		}
		if err := tab.FlushWAL(); err == nil {
			t.Fatal("flush with failing segment writes should error")
		}
	}
	// A third insert hits backpressure and blocks.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- tab.Insert(wctx, fillBatch(t, opts, ds, 100, 50)) }()
	// Next run: M1 flushes fine (its segment writes and manifest land
	// before the predicate trips) but M2's segment write still fails.
	// The slot M1 freed must wake the writer despite the run's error.
	var sawManifest atomic.Bool
	failPuts(fs, func(key string) bool {
		if isManifestKey(key) {
			sawManifest.Store(true)
			return false
		}
		return sawManifest.Load() && isSegmentKey(key)
	})
	if err := tab.FlushWAL(); err == nil {
		t.Fatal("flush with failing later memtable should error")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked writer failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked after a flush freed backlog space")
	}
	failPuts(fs, nil)
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 150 || tab.MemRows() != 0 {
		t.Fatalf("rows=%d mem=%d, want 150 flushed rows", tab.Rows(), tab.MemRows())
	}
	testutil.CheckNoLeaks(t, before)
}

// TestOpenRoundTripIdenticalResults: create → ingest → delete → compact
// → reopen must leave query results byte-identical — both the raw
// contents and the index search candidates.
func TestOpenRoundTripIdenticalResults(t *testing.T) {
	store := storage.NewMemStore()
	opts := testOptions("t")
	opts.SegmentRows = 100
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Small(lN, lDim, 3)
	for i := 0; i < 5; i++ {
		ingest(t, tab, fillBatch(t, opts, ds, i*100, 100))
	}
	if _, err := tab.DeleteByKey(context.Background(), "id", []int64{1, 101, 201, 499}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CompactOnce(CompactionPolicy{MinSegments: 2}); err != nil {
		t.Fatal(err)
	}
	// One post-compaction delete so a live bitmap must survive reopen too.
	if _, err := tab.DeleteByKey(context.Background(), "id", []int64{42}); err != nil {
		t.Fatal(err)
	}
	want := tableContents(t, tab)
	search := func(tb *Table) []index.Candidate {
		var out []index.Candidate
		for _, m := range tb.Segments() {
			ix, err := tb.OpenIndex(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.SearchWithFilter(ds.Queries.Row(0), 10, nil, index.SearchParams{Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res...)
		}
		return out
	}
	wantSearch := search(tab)

	re, err := Open(store, "t")
	if err != nil {
		t.Fatal(err)
	}
	equalContents(t, want, tableContents(t, re), "reopened contents")
	gotSearch := search(re)
	if len(gotSearch) != len(wantSearch) {
		t.Fatalf("search results = %d, want %d", len(gotSearch), len(wantSearch))
	}
	for i := range wantSearch {
		if gotSearch[i] != wantSearch[i] {
			t.Fatalf("search candidate %d differs: %+v vs %+v", i, gotSearch[i], wantSearch[i])
		}
	}
}

// TestWALCloseRaceDeleteIsReadOnly: a DeleteByKey whose WAL append
// loses the race with CloseWAL (Append returns wal.ErrClosed while
// walRT is still loaded) returns ErrReadOnly and marks nothing.
// Regression: the synchronous fallback that delete once took there
// re-acquired the non-reentrant dmlMu the delete already held — a
// self-deadlock that hung the delete and, with it, every later DML,
// flush, and compaction on the table.
func TestWALCloseRaceDeleteIsReadOnly(t *testing.T) {
	before := runtime.NumGoroutine()
	tab, ds := newTestTable(t, testOptions("t"))
	ctx := context.Background()
	ingest(t, tab, fillBatch(t, tab.Options(), ds, 0, 100))
	// Close the log while walRT stays loaded — the exact window a
	// concurrent CloseWAL opens between its Swap and a racing delete's
	// walRT.Load.
	tab.walRT.Load().log.Close()

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := tab.DeleteByKey(ctx, "id", []int64{5})
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, ErrReadOnly) || r.n != 0 {
			t.Fatalf("delete on a closed log: n=%d err=%v, want n=0 ErrReadOnly", r.n, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DeleteByKey deadlocked on a closed log")
	}
	if got := len(tableContents(t, tab)); got != 100 {
		t.Fatalf("rows after refused delete = %d, want 100", got)
	}
	// dmlMu is free: a flush, which takes it, runs.
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	crashWAL(tab) // log already closed (idempotent); stops the flusher
	testutil.CheckNoLeaks(t, before)
}
