package lsm

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/storage"
	"blendhouse/internal/wal"
)

// TestPinWALTruncate: a pinned table flushes normally but keeps its
// WAL blobs; releasing the last pin catches up the truncation.
func TestPinWALTruncate(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("pin"))
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(context.Background(), fillBatch(t, tab.Options(), ds, 0, 100)); err != nil {
		t.Fatal(err)
	}
	tab.mu.Lock()
	unpin := tab.pinWALTruncateLocked()
	tab.mu.Unlock()
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if tab.SegmentCount() == 0 {
		t.Fatal("pin must not block flushing, only truncation")
	}
	keys, err := tab.Store().List(wal.Prefix("pin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("WAL truncated while truncation was pinned")
	}
	unpin()
	keys, err = tab.Store().List(wal.Prefix("pin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("WAL not caught up after unpin: %d blobs remain", len(keys))
	}
	unpin() // releasing twice is a no-op
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestBackupPITRRoundTrip: back up a table whose memtable holds acked
// rows past the flushed watermark; the restored table replays the
// copied WAL tail and answers with exactly the same rows.
func TestBackupPITRRoundTrip(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("bk"))
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, 0, 200)); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushWAL(); err != nil { // establishes the watermark
		t.Fatal(err)
	}
	// These rows live only in the WAL + memtable: the PITR payload.
	if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, 200, 60)); err != nil {
		t.Fatal(err)
	}
	want := tableContents(t, tab)

	dst := storage.NewMemStore()
	bm, err := tab.Backup(ctx, dst)
	if err != nil {
		t.Fatal(err)
	}
	out := storage.NewMemStore()
	rt, _, err := Restore(ctx, dst, out, "bk")
	if err != nil {
		t.Fatal(err)
	}
	if rt.FlushedLSN() <= bm.SnapshotLSN {
		t.Fatalf("no PITR replay: restored lsn %d, snapshot lsn %d", rt.FlushedLSN(), bm.SnapshotLSN)
	}
	equalContents(t, want, tableContents(t, rt), "restored table")
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestBackupUnderConcurrentWrites: a writer keeps inserting while the
// backup runs. The restored table must open cleanly and contain every
// row acked before the backup started (rows racing the snapshot may or
// may not make the cut — the guarantee is a consistent point at or
// after the watermark).
func TestBackupUnderConcurrentWrites(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("live"))
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, 0, 200)); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, 200, 40)); err != nil {
		t.Fatal(err)
	}
	want := tableContents(t, tab) // acked before the backup starts

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := 1000
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, id, 10)); err != nil {
				t.Error(err)
				return
			}
			id += 10
		}
	}()
	dst := storage.NewMemStore()
	_, err := tab.Backup(ctx, dst)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	out := storage.NewMemStore()
	rt, _, err := Restore(ctx, dst, out, "live")
	if err != nil {
		t.Fatalf("restored table does not open (inconsistent snapshot?): %v", err)
	}
	got := map[string]bool{}
	for _, fp := range tableContents(t, rt) {
		got[fp] = true
	}
	for _, fp := range want {
		if !got[fp] {
			t.Fatalf("row acked before backup missing after restore: %s", fp)
		}
	}
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestBackupPinsVersionUnderCompaction: every time the backup reads a
// segment blob, a hook on the source inserts rows, flushes them into a
// segment and compacts the table down to one segment, retiring every
// segment the backup started from. The backup still completes in one
// pass, copies exactly the segments of the Version it pinned, and its
// restore answers as the source does: the pinned segments plus the WAL
// tail, which carries the hook's inserts past the snapshot watermark.
func TestBackupPinsVersionUnderCompaction(t *testing.T) {
	ctx := context.Background()
	ds := dataset.Small(lN, lDim, 3)
	src := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
	tab, err := Create(src, testOptions("race"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, i*200, 200)); err != nil {
			t.Fatal(err)
		}
		if err := tab.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	pinned := map[string]bool{}
	for _, m := range tab.Segments() {
		pinned[m.Name] = true
	}
	snapshotLSN := tab.FlushedLSN()

	var backingUp, inHook atomic.Bool
	next, compactions := 1000, 0
	src.SetHook(func(op storage.FaultOp, key string) error {
		if op != storage.FaultOpGet || !strings.Contains(key, "/segments/") ||
			!backingUp.Load() || inHook.Swap(true) {
			return nil
		}
		defer inHook.Store(false)
		if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, next, 20)); err != nil {
			return err
		}
		next += 20
		if err := tab.FlushWAL(); err != nil {
			return err
		}
		n, err := tab.CompactAll(CompactionPolicy{MinSegments: 2})
		if err != nil {
			return err
		}
		if n > 0 {
			compactions++
		}
		return nil
	})
	dst := storage.NewMemStore()
	backingUp.Store(true)
	bm, err := tab.Backup(ctx, dst)
	backingUp.Store(false)
	if err != nil {
		t.Fatalf("backup under compaction: %v", err)
	}
	if compactions == 0 {
		t.Fatal("the hook never compacted: the race did not happen")
	}
	if bm.SnapshotLSN != snapshotLSN {
		t.Fatalf("snapshot lsn %d, want the pinned Version's %d", bm.SnapshotLSN, snapshotLSN)
	}
	copied := map[string]bool{}
	for _, b := range bm.Blobs {
		if rest, ok := strings.CutPrefix(b.Key, segmentsPrefix("race")); ok {
			seg, _, _ := strings.Cut(rest, "/")
			if !pinned[seg] {
				t.Fatalf("backup copied %s, a segment the pinned Version does not name", b.Key)
			}
			copied[seg] = true
		}
	}
	if len(copied) != len(pinned) {
		t.Fatalf("backup copied segments %v, the pinned Version names %v", copied, pinned)
	}
	for _, m := range tab.Segments() {
		if pinned[m.Name] {
			t.Fatalf("segment %s is still live: the hook's compactions did not retire the pinned ones", m.Name)
		}
	}
	out := storage.NewMemStore()
	rt, _, err := Restore(ctx, dst, out, "race")
	if err != nil {
		t.Fatal(err)
	}
	equalContents(t, tableContents(t, tab), tableContents(t, rt), "restored table")
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// testdata/golden_backup_v1/ is a backup destination as BACKUP wrote it
// before lsm took it over, from a table with two flushed segments, their
// delete bitmaps, and an insert and a delete only in the WAL tail;
// testdata/golden_backup_v1.json holds that table's row count and exact
// top-10 answers at the snapshot. Both are append-only: the set must
// keep restoring, replay its tail and answer what it answered.
func TestGoldenBackupV1Restores(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_backup_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Table       string `json:"table"`
		Rows        int    `json:"rows"`
		SnapshotLSN int64  `json:"snapshot_lsn"`
		Blobs       int    `json:"blobs"`
		Queries     []struct {
			Q        []float32 `json:"q"`
			K        int       `json:"k"`
			ExactIDs []int64   `json:"exact_ids"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	src, err := storage.NewFSStore("testdata/golden_backup_v1")
	if err != nil {
		t.Fatal(err)
	}
	tab, bm, err := Restore(context.Background(), src, storage.NewMemStore(), g.Table)
	if err != nil {
		t.Fatalf("the golden backup set no longer restores: %v", err)
	}
	if bm.SnapshotLSN != g.SnapshotLSN || len(bm.Blobs) != g.Blobs {
		t.Fatalf("marker: snapshot lsn %d, %d blobs; golden %d, %d", bm.SnapshotLSN, len(bm.Blobs), g.SnapshotLSN, g.Blobs)
	}
	if tab.FlushedLSN() <= bm.SnapshotLSN {
		t.Fatalf("the WAL tail did not replay: lsn %d", tab.FlushedLSN())
	}
	if tab.Rows() != g.Rows {
		t.Fatalf("restored %d rows, golden %d", tab.Rows(), g.Rows)
	}
	rows := tableRows(t, tab)
	all := func(int64) bool { return true }
	for qi, q := range g.Queries {
		if got := exactTopK(rows, q.Q, q.K); !reflect.DeepEqual(got, q.ExactIDs) {
			t.Fatalf("query %d: exact top-%d %v, golden %v", qi, q.K, got, q.ExactIDs)
		}
		var ann []int64
		for _, c := range segmentTop10(t, tab, q.Q, all) {
			ann = append(ann, c.ID)
		}
		if !reflect.DeepEqual(ann, q.ExactIDs) {
			t.Fatalf("query %d: index top-%d %v, golden %v", qi, q.K, ann, q.ExactIDs)
		}
	}
}
