package lsm

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/storage"
)

// listAll returns every key the table's directory holds.
func listAll(t *testing.T, store storage.BlobStore, table string) []string {
	t.Helper()
	keys, err := store.List("tables/" + table + "/")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// writeAll runs each write a table takes and returns their errors.
func writeAll(tab *Table, b *storage.RowBatch) []error {
	ctx := context.Background()
	_, derr := tab.DeleteByKey(ctx, "id", []int64{1})
	_, uerr := tab.Update(ctx, "id", b)
	return []error{tab.Insert(ctx, b), derr, uerr}
}

// TestWritesWithoutRunningLogAreReadOnly: the log is a table's only
// write path. Before EnableWAL, after CloseWAL and after Drop every
// write returns ErrReadOnly and stores nothing; after Drop the table's
// directory stays empty.
func TestWritesWithoutRunningLogAreReadOnly(t *testing.T) {
	tab, ds := newTestTable(t, testOptions("t"))
	store := tab.Store()
	b := fillBatch(t, tab.Options(), ds, 0, 20)
	check := func(when string, want []string) {
		t.Helper()
		for i, err := range writeAll(tab, b) {
			if !errors.Is(err, ErrReadOnly) {
				t.Fatalf("%s: write %d: err = %v, want ErrReadOnly", when, i, err)
			}
		}
		if got := listAll(t, store, "t"); !slices.Equal(got, want) {
			t.Fatalf("%s: writes changed the store:\n%v\nwant\n%v", when, got, want)
		}
	}
	check("before EnableWAL", listAll(t, store, "t"))

	ingest(t, tab, b)
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows()
	check("after CloseWAL", listAll(t, store, "t"))
	if tab.Rows() != rows {
		t.Fatalf("rows after refused writes = %d, want %d", tab.Rows(), rows)
	}

	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tab.Drop(); err != nil {
		t.Fatal(err)
	}
	check("after Drop", nil)
}

// TestInsertRacingDropStoresNothing: an INSERT that found the table's
// log running, and then waited while DROP TABLE stopped it and deleted
// the table, must neither succeed nor store a blob: once it stored
// segments and a manifest, and the dropped table came back on reopen.
// The writer waits on a full flush backlog, the one wait between
// loading the log and appending to it.
func TestInsertRacingDropStoresNothing(t *testing.T) {
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
	// Two failed flushes fill the backlog to its cap; flushes keep
	// failing until the table is dropped, so none frees a slot.
	failPuts(fs, isSegmentKey)
	for i := range maxSealed {
		if err := tab.Insert(ctx, fillBatch(t, opts, ds, i*50, 50)); err != nil {
			t.Fatal(err)
		}
		if err := tab.FlushWAL(); err == nil {
			t.Fatal("flush succeeded despite the injected failure")
		}
	}
	ws := tab.walRT.Load()

	stalls := mMemStalls.Value()
	done := make(chan error, 1)
	go func() { done <- tab.Insert(ctx, fillBatch(t, opts, ds, 500, 50)) }()
	for mMemStalls.Value() == stalls {
		time.Sleep(time.Millisecond)
	}
	if err := tab.Drop(); err != nil {
		t.Fatal(err)
	}
	// Wake the writer as a finished flush would, over a healthy store.
	failPuts(fs, nil)
	tab.mu.Lock()
	close(ws.spaceCh)
	ws.spaceCh = make(chan struct{})
	tab.mu.Unlock()
	select {
	case err := <-done:
		if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("insert racing Drop: err = %v, want ErrReadOnly", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("insert racing Drop never returned")
	}
	if keys := listAll(t, mem, "t"); len(keys) != 0 {
		t.Fatalf("the dropped table's directory holds %v", keys)
	}
	var missing *storage.ErrNotFound
	if _, err := Open(mem, "t"); !errors.As(err, &missing) {
		t.Fatalf("reopening the dropped table: err = %v, want not found", err)
	}
}
