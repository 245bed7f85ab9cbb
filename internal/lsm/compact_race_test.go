package lsm

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/storage"
)

// TestCompactCarriesConcurrentDelete pins the lost-delete compaction
// race: a DELETE that lands after CompactOnce has snapshotted a source
// segment's delete bitmap but before the catalog swap used to be
// silently dropped when t.deletes[m.Name] was discarded — the deleted
// row came back to life in the merged segment. The fault injector's
// hook fires the DELETE at exactly that window: the first blob Put of
// the merged segment, i.e. after every bitmap read, before the swap.
func TestCompactCarriesConcurrentDelete(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("carry")
	fault := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
	tab, err := Create(fault, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, tab, fillBatch(t, opts, ds, 0, 600))
	if got := tab.SegmentCount(); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}

	victim := int64(7) // lives in the first source segment
	var fired atomic.Bool
	var deleteMarked atomic.Int64
	fault.SetHook(func(op storage.FaultOp, key string) error {
		// First Put under the table's segment tree during CompactOnce is
		// the merged segment being written — bitmaps are already read.
		// (CompareAndSwap also keeps the DELETE's own bitmap Put from
		// re-entering.)
		if op == storage.FaultOpPut && strings.Contains(key, "/segments/") && fired.CompareAndSwap(false, true) {
			n, derr := tab.DeleteByKey(context.Background(), "id", []int64{victim})
			if derr != nil {
				t.Errorf("concurrent delete: %v", derr)
			}
			deleteMarked.Store(int64(n))
		}
		return nil
	})
	merged, err := tab.CompactOnce(CompactionPolicy{MinSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	fault.SetHook(nil)
	if merged != 3 {
		t.Fatalf("merged %d segments, want 3", merged)
	}
	if !fired.Load() {
		t.Fatal("hook never fired — test no longer exercises the race window")
	}
	if deleteMarked.Load() != 1 {
		t.Fatalf("concurrent delete marked %d rows, want 1", deleteMarked.Load())
	}

	// The acknowledged DELETE must survive the compaction swap.
	for _, row := range tableContents(t, tab) {
		if strings.HasPrefix(row, "7|") {
			t.Fatalf("deleted row resurrected by compaction: %s", row)
		}
	}
	if got := tab.Rows(); got != 599 { // Rows() is already net of deletes
		t.Fatalf("live rows = %d, want 599", got)
	}
	if got := tab.DeletedRows(); got != 1 {
		t.Fatalf("deleted rows = %d, want 1 carried into the merged segment", got)
	}

	// And it must survive durably: a fresh Open from the same store
	// sees the carried bitmap, not the resurrected row.
	reopened, err := Open(fault, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tableContents(t, reopened) {
		if strings.HasPrefix(row, "7|") {
			t.Fatalf("deleted row resurrected after reopen: %s", row)
		}
	}
}

// TestCompactDeleteStress hammers CompactAll with a concurrent deleter:
// every acknowledged DELETE must be reflected in the final contents no
// matter how it interleaves with merges.
func TestCompactDeleteStress(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("stress")
	opts.SegmentRows = 50 // many small segments → many merge rounds
	tab, err := Create(storage.NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, tab, fillBatch(t, opts, ds, 0, 600))

	deleted := make(chan int64, 600)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := int64(0); id < 300; id += 3 {
			if _, err := tab.DeleteByKey(context.Background(), "id", []int64{id}); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
			deleted <- id
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := tab.CompactAll(CompactionPolicy{MinSegments: 2}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if _, err := tab.CompactAll(CompactionPolicy{MinSegments: 2}); err != nil {
		t.Fatal(err)
	}
	close(deleted)

	gone := map[string]bool{}
	for id := range deleted {
		gone[strconv.FormatInt(id, 10)+"|"] = true
	}
	for _, row := range tableContents(t, tab) {
		p := row[:strings.IndexByte(row, '|')+1]
		if gone[p] {
			t.Fatalf("acked delete lost: row %s still alive", row)
		}
	}
}
