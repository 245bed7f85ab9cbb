package lsm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/storage"
)

// liveSegments returns the current Version's segments.
func liveSegments(tab *Table) []*Segment {
	v, _ := tab.Acquire()
	defer v.Release()
	return v.Segments
}

// hasRow reports whether contents (tableContents) holds the row of id.
func hasRow(contents []string, id int64) bool {
	prefix := fmt.Sprintf("%d|", id)
	return slices.ContainsFunc(contents, func(row string) bool { return strings.HasPrefix(row, prefix) })
}

// A held Version is the table as it was acquired: compaction, a DELETE
// and a flush that run to completion meanwhile change nothing it
// reads, and delete no blob it names. Its release retires the segments
// the compaction merged — their blobs go and the retire hook names
// each once — and nothing else.
func TestVersionPinsReads(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("pin")
	store := storage.NewMemStore()
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	defer tab.CloseWAL()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := tab.InsertCtx(ctx, fillBatch(t, opts, ds, 100*i, 100)); err != nil {
			t.Fatal(err)
		}
		if err := tab.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.InsertCtx(ctx, fillBatch(t, opts, ds, 400, 50)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var retired []string
	tab.OnRetire(func(seg string) {
		mu.Lock()
		defer mu.Unlock()
		retired = append(retired, seg)
	})

	v, segs := tab.Acquire()
	want := versionContents(t, segs)
	var inputs []string
	for _, s := range v.Segments {
		inputs = append(inputs, s.Meta.Name)
	}
	if len(inputs) != 4 || len(segs) != 5 {
		t.Fatalf("acquired %d segments and %d memtables, want 4 and 1", len(inputs), len(segs)-len(inputs))
	}
	if n, err := tab.CompactAll(CompactionPolicy{MinSegments: 2}); err != nil || n != 4 {
		t.Fatalf("compaction merged %d (%v), want 4", n, err)
	}
	if n, err := tab.DeleteByKeyCtx(ctx, "id", []int64{3, 150, 420}); err != nil || n != 3 {
		t.Fatalf("DELETE marked %d (%v), want 3", n, err)
	}
	if err := tab.InsertCtx(ctx, fillBatch(t, opts, ds, 500, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	equalContents(t, want, versionContents(t, segs), "held Version after compaction, DELETE and flush")
	segBlobs := func(seg string) int {
		keys, err := store.List(segmentsPrefix(opts.Name) + seg + "/")
		if err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}
	for _, seg := range inputs {
		if segBlobs(seg) == 0 {
			t.Fatalf("blobs of %s deleted while a Version names it", seg)
		}
	}
	if len(retired) != 0 {
		t.Fatalf("retired %v while a Version names them", retired)
	}

	v.Release()
	for _, seg := range inputs {
		if n := segBlobs(seg); n != 0 {
			t.Fatalf("%d blobs of retired %s left after the last release", n, seg)
		}
	}
	slices.Sort(retired)
	if !slices.Equal(retired, inputs) {
		t.Fatalf("retire hook named %v, want %v", retired, inputs)
	}
	now := tableContents(t, tab)
	for _, id := range []int64{3, 150, 420} {
		if hasRow(now, id) {
			t.Fatalf("deleted id %d visible", id)
		}
	}
	if len(now) != len(want)-3+50 {
		t.Fatalf("%d rows visible, want %d", len(now), len(want)-3+50)
	}
}

// A DELETE racing queries stays deleted: in memory from the moment it
// returns, in every query that acquires after it, and after a reopen.
// Queries meanwhile read every segment they acquired without a failed
// read.
func TestVersionDeleteRacingQueries(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("race")
	tab, err := Create(storage.NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(fillBatch(t, opts, ds, 0, 600)); err != nil {
		t.Fatal(err)
	}
	// The j-th DELETE removes key(j): ids walk the three segments, so
	// every bitmap is copied again and again while queries hold older
	// ones.
	key := func(j int64) int64 { return j/20*200 + j%20 }
	var done atomic.Int64 // DELETEs returned
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n := done.Load()
				rows := tableContents(t, tab)
				for j := int64(0); j < n; j++ {
					if hasRow(rows, key(j)) {
						t.Errorf("id %d visible after its DELETE returned", key(j))
						return
					}
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }() // also on a failed DELETE
	for j := int64(0); j < 60; j++ {
		if n, err := tab.DeleteByKey("id", []int64{key(j)}); err != nil || n != 1 {
			t.Fatalf("DELETE of %d marked %d (%v)", key(j), n, err)
		}
		done.Store(j + 1)
	}
	stop.Store(true)
	wg.Wait()
	re, err := Open(tab.Store(), opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableContents(t, re)
	for j := int64(0); j < 60; j++ {
		if hasRow(rows, key(j)) {
			t.Fatalf("id %d visible after reopen", key(j))
		}
	}
	if got := re.Rows(); got != 540 {
		t.Fatalf("live rows after reopen = %d, want 540", got)
	}
}

// A DELETE whose bitmap cannot be persisted fails and hides nothing;
// once the store heals, the same DELETE succeeds and survives a
// reopen.
func TestFailedDeleteIsInvisible(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("faildel")
	fault := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
	tab, err := Create(fault, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(fillBatch(t, opts, ds, 0, 600)); err != nil {
		t.Fatal(err)
	}
	var broken atomic.Bool
	broken.Store(true)
	fault.SetHook(func(op storage.FaultOp, key string) error {
		if op == storage.FaultOpPut && strings.HasSuffix(key, "delete.bmp") && broken.Load() {
			return errors.New("injected put failure")
		}
		return nil
	})
	if _, err := tab.DeleteByKey("id", []int64{7, 450}); err == nil {
		t.Fatal("DELETE succeeded though its bitmap was not persisted")
	}
	if rows := tableContents(t, tab); !hasRow(rows, 7) || !hasRow(rows, 450) || len(rows) != 600 {
		t.Fatalf("a failed DELETE hid rows: %d visible", len(rows))
	}
	if got := tab.Rows(); got != 600 {
		t.Fatalf("live rows after a failed DELETE = %d, want 600", got)
	}
	broken.Store(false)
	if n, err := tab.DeleteByKey("id", []int64{7, 450}); err != nil || n != 2 {
		t.Fatalf("healed DELETE marked %d (%v), want 2", n, err)
	}
	re, err := Open(fault, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	if rows := tableContents(t, re); hasRow(rows, 7) || hasRow(rows, 450) || len(rows) != 598 {
		t.Fatalf("after reopen %d rows visible, want 598 without ids 7 and 450", len(rows))
	}
}

// OpenIndex holds the Version that names its segment until the load is
// done: a compaction that retires the segment the moment the index
// blob's GET starts deletes nothing under the read, and the segment's
// blobs go once the load lets the Version go.
func TestOpenIndexPinsItsSegment(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("openidx")
	fault := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
	tab, err := Create(fault, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tab.Insert(fillBatch(t, opts, ds, 200*i, 200)); err != nil {
			t.Fatal(err)
		}
	}
	seg := tab.Segments()[0].Name
	var (
		fired      atomic.Bool
		merged     int
		compactErr error
	)
	fault.SetHook(func(op storage.FaultOp, key string) error {
		if op == storage.FaultOpGet && key == tab.IndexKeyOf(seg) && fired.CompareAndSwap(false, true) {
			merged, compactErr = tab.CompactAll(CompactionPolicy{MinSegments: 2})
		}
		return nil
	})
	ix, err := tab.OpenIndex(seg)
	fault.SetHook(nil)
	if !fired.Load() {
		t.Fatal("OpenIndex never read the index blob")
	}
	if compactErr != nil || merged != 3 {
		t.Fatalf("compaction merged %d (%v), want 3", merged, compactErr)
	}
	if err != nil {
		t.Fatalf("OpenIndex under a compaction that retired its segment: %v", err)
	}
	if ix.Count() != 200 {
		t.Fatalf("loaded index holds %d rows, want 200", ix.Count())
	}
	keys, err := fault.List(segmentsPrefix(opts.Name) + seg + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("%d blobs of retired %s left after the load", len(keys), seg)
	}
}
