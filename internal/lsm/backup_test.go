package lsm

import (
	"context"
	"sync"
	"testing"

	"blendhouse/internal/blobtier"
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
	unpin := tab.PinWALTruncate()
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
	bm, err := blobtier.BackupTable(ctx, tab.Store(), "bk", tab, dst)
	if err != nil {
		t.Fatal(err)
	}
	out := storage.NewMemStore()
	if _, err := blobtier.RestoreTable(ctx, dst, "bk", out); err != nil {
		t.Fatal(err)
	}
	rt, err := Open(out, "bk")
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
	_, err := blobtier.BackupTable(ctx, tab.Store(), "live", tab, dst)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	out := storage.NewMemStore()
	if _, err := blobtier.RestoreTable(ctx, dst, "live", out); err != nil {
		t.Fatal(err)
	}
	rt, err := Open(out, "live")
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
