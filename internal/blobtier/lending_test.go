package blobtier

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/storage"
)

// The read side of the BlobStore contract as the tier implements it:
// a read lends the cached bytes, and nothing a well-behaved or a
// careless-but-appending caller does, nor an eviction, can change what
// another holder of the same bytes sees.

func TestTieredHitAllocatesNothing(t *testing.T) {
	ts, _ := newCountingTiered(t, Config{MemBytes: 1 << 20})
	key := segKey("hot")
	if err := ts.Put(key, bytes.Repeat([]byte{3}, 4096)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if v, err := ts.GetCtx(ctx, key); err != nil || len(v) != 4096 {
			t.Fatalf("GetCtx = %d bytes, %v", len(v), err)
		}
	}); n != 0 {
		t.Errorf("GetCtx on a memory hit makes %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, err := ts.GetRangeCtx(ctx, key, 1024, 512); err != nil || len(v) != 512 {
			t.Fatalf("GetRangeCtx = %d bytes, %v", len(v), err)
		}
	}); n != 0 {
		t.Errorf("GetRangeCtx on a memory hit makes %.0f allocations, want 0", n)
	}
}

func TestTieredRangeAppendLeavesCacheIntact(t *testing.T) {
	ts, _ := newCountingTiered(t, Config{MemBytes: 1 << 20})
	key := segKey("r")
	want := []byte("0123456789")
	if err := ts.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := ts.GetRange(key, 2, 3)
	if err != nil || string(got) != "234" {
		t.Fatalf("range = %q, %v", got, err)
	}
	if cap(got) != len(got) {
		t.Fatalf("range has cap %d > len %d: an append would write into the cache", cap(got), len(got))
	}
	grown := append(got, "XXXX"...)
	if string(grown) != "234XXXX" {
		t.Fatalf("append produced %q", grown)
	}
	full, err := ts.Get(key)
	if err != nil || !bytes.Equal(full, want) {
		t.Fatalf("cached blob after a caller's append = %q, %v; want %q", full, err, want)
	}
}

// Leader and waiters of one fill share the admitted slice; a reader
// still holding it when the key is evicted (and spilled) keeps reading
// the same bytes.
func TestTieredFillSharedAcrossEviction(t *testing.T) {
	want := bytes.Repeat([]byte("blendhouse"), 100)
	slow := &slowStore{BlobStore: storage.NewMemStore(), delay: 50 * time.Millisecond}
	if err := slow.BlobStore.Put(segKey("big"), want); err != nil {
		t.Fatal(err)
	}
	ts, err := NewTiered(slow, Config{
		MemBytes: int64(len(want)) + 10, DiskBytes: 1 << 20, DiskStore: storage.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([][]byte, readers)
	errs := make([]error, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i], errs[i] = ts.Get(segKey("big"))
		}(i)
	}
	start.Done()
	done.Wait()
	shared := 0
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("reader %d read different bytes", i)
		}
		if &got[i][0] == &got[0][0] {
			shared++
		}
	}
	// A reader descheduled across the flight may lead a second one (see
	// TestTieredSingleflightDedup); one flight lends everyone one slice.
	if slow.gets.Load() == 1 && shared != readers {
		t.Errorf("one flight, but only %d of %d readers share its slice", shared, readers)
	}
	// Evict it while every reader still holds its slice.
	if err := ts.Put(segKey("other"), bytes.Repeat([]byte{9}, len(want))); err != nil {
		t.Fatal(err)
	}
	if st := ts.TierStats(); st.MemEntries != 1 || st.DiskEntries != 1 {
		t.Fatalf("expected the filled blob evicted to disk, tiers = %+v", st)
	}
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("reader %d: held bytes changed after eviction", i)
		}
	}
	// And back from disk: same bytes again.
	back, err := ts.Get(segKey("big"))
	if err != nil || !bytes.Equal(back, want) {
		t.Fatalf("disk hit returned different bytes (%v)", err)
	}
}

// Size is a probe: it must not make a blob look recently read, nor
// count as a hit.
func TestTieredSizeIsNotARead(t *testing.T) {
	ts, _ := newCountingTiered(t, Config{MemBytes: 200})
	for _, k := range []string{"a", "b"} {
		if err := ts.Put(segKey(k), bytes.Repeat([]byte(k), 80)); err != nil {
			t.Fatal(err)
		}
	}
	before := ts.TierStats()
	if n, err := ts.Size(segKey("a")); err != nil || n != 80 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if after := ts.TierStats(); after != before {
		t.Fatalf("Size moved the tier's counters: %+v -> %+v", before, after)
	}
	// "a" is still the least recently used, so it is the one to go.
	if err := ts.Put(segKey("c"), bytes.Repeat([]byte("c"), 80)); err != nil {
		t.Fatal(err)
	}
	if ts.mem.Contains(segKey("a")) || !ts.mem.Contains(segKey("b")) {
		t.Fatalf("over-budget Put evicted the wrong key: a cached=%v b cached=%v",
			ts.mem.Contains(segKey("a")), ts.mem.Contains(segKey("b")))
	}
}
