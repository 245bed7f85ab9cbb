package lsm

import (
	"context"
	"runtime"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
	"blendhouse/internal/wal"
)

// onRelease puts a finalizer on the table's active memtable; the
// returned channel closes once the collector finds it unreachable.
func onRelease(tab *Table) <-chan struct{} {
	released := make(chan struct{})
	tab.mu.RLock()
	runtime.SetFinalizer(tab.cur.mem, func(*wal.Memtable) { close(released) })
	tab.mu.RUnlock()
	return released
}

// TestFlushReleasesMemtable: once a memtable is retired, nothing of the
// table reaches it. The flush swap used to leave it in the vacated slot
// of the sealed list's backing array until a later seal overwrote it —
// on an idle table, forever.
func TestFlushReleasesMemtable(t *testing.T) {
	failOnce := []storage.FaultRule{{Op: storage.FaultOpPut, KeySubstr: "/segments/", FailCount: 1}}
	cases := []struct {
		name   string
		faults []storage.FaultRule
		retire func(t *testing.T, tab *Table)
	}{
		{"FlushWAL", nil, func(t *testing.T, tab *Table) {
			if err := tab.FlushWAL(); err != nil {
				t.Fatal(err)
			}
		}},
		{"FlushWAL after a failed segment Put", failOnce, func(t *testing.T, tab *Table) {
			if err := tab.FlushWAL(); err == nil {
				t.Fatal("flush with a failing segment write should error")
			}
			if err := tab.FlushWAL(); err != nil {
				t.Fatal(err)
			}
		}},
		{"CloseWAL", nil, func(t *testing.T, tab *Table) {
			if err := tab.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Drop", nil, func(t *testing.T, tab *Table) {
			if err := tab.Drop(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	ds := dataset.Small(lN, lDim, 3)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1, Rules: c.faults})
			opts := testOptions("t")
			tab, err := Create(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.EnableWAL(walTestConfig()); err != nil {
				t.Fatal(err)
			}
			if err := tab.Insert(context.Background(), fillBatch(t, opts, ds, 0, 250)); err != nil {
				t.Fatal(err)
			}
			released := onRelease(tab)
			c.retire(t, tab)
			deadline := time.Now().Add(10 * time.Second)
			for done := false; !done; {
				runtime.GC()
				select {
				case <-released:
					done = true
				case <-time.After(10 * time.Millisecond):
					if time.Now().After(deadline) {
						t.Fatal("the retired memtable is still reachable")
					}
				}
			}
			if err := tab.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			testutil.CheckNoLeaks(t, before)
		})
	}
}

// TestFlushAllocatesWhatItWrites: one FlushWAL of a 3 000 × 128-d
// memtable — the standing benchmark's segment, HNSW auto-index at M 8,
// ef_construction 80 — allocates a few times the bytes of the rows it
// writes (the index's vectors and graph, its saved blob, the store's
// copy) in a few hundred allocations. It took 27 times the row bytes in
// 9 136 allocations while the flush copied every row twice, one row at
// a time, and each insert of the build allocated a visited table one
// node larger. Two collections first empty the search scratch pool, as
// the collections of a bulk load do.
func TestFlushAllocatesWhatItWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, dim = 3000, 128
	opts := idVecOptions("alloc", index.HNSW, dim)
	opts.IndexParams, opts.AutoIndex, opts.SegmentRows = index.BuildParams{}, true, 8192
	tab, err := Create(storage.NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	// A first, small flush pays what a process pays once, such as
	// encoding/json's per-type encoders for the segment meta and the
	// manifest.
	ctx := context.Background()
	if err := tab.Insert(ctx, lcgBatch(opts, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(ctx, lcgBatch(opts, n, 5)); err != nil {
		t.Fatal(err)
	}
	rowBytes := uint64(n * (8 + 4*dim))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("flush of %d row bytes: %d bytes (%.1fx) in %d allocations", rowBytes, bytes, float64(bytes)/float64(rowBytes), mallocs)
	if bytes > 6*rowBytes {
		t.Errorf("flush allocates %.1fx its row bytes, want <= 6x", float64(bytes)/float64(rowBytes))
	}
	if mallocs > 400 {
		t.Errorf("flush makes %d allocations, want <= 400", mallocs)
	}
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestMemtableGaugesSumEveryMemtable: bh.lsm.memtable.rows and .bytes
// count every live memtable of every table, a sealed one waiting on a
// failed flush included, and each retirement — the flush swap, CloseWAL,
// DROP TABLE — takes its memtables back out. Other tests of the process
// may leave memtables behind, so the gauges are read from where they
// stood at the start.
func TestMemtableGaugesSumEveryMemtable(t *testing.T) {
	before := runtime.NumGoroutine()
	rows0, bytes0 := mMemRows.Value(), mMemBytes.Value()
	fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1, Rules: []storage.FaultRule{
		{Op: storage.FaultOpPut, KeySubstr: "tables/a/segments/", FailCount: 1},
	}})
	ds := dataset.Small(lN, lDim, 3)
	ctx := context.Background()
	tabs := map[string]*Table{}
	for _, name := range []string{"a", "b"} {
		tab, err := Create(fs, testOptions(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.EnableWAL(walTestConfig()); err != nil {
			t.Fatal(err)
		}
		tabs[name] = tab
	}
	a, b := tabs["a"], tabs["b"]
	insert := func(tab *Table, start, n int) {
		t.Helper()
		if err := tab.Insert(ctx, fillBatch(t, tab.Options(), ds, start, n)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, rows int64) {
		t.Helper()
		var bytes int64
		for _, tab := range tabs {
			for _, m := range tab.current().memtables() {
				bytes += m.Bytes()
			}
		}
		if got := mMemRows.Value() - rows0; got != rows {
			t.Fatalf("%s: bh.lsm.memtable.rows moved by %d, want %d", stage, got, rows)
		}
		if got := mMemBytes.Value() - bytes0; got != bytes {
			t.Fatalf("%s: bh.lsm.memtable.bytes moved by %d, want %d", stage, got, bytes)
		}
	}
	insert(a, 0, 100)
	insert(b, 0, 50)
	check("two active memtables", 150)
	if err := a.FlushWAL(); err == nil {
		t.Fatal("flush with a failing segment write should error")
	}
	insert(a, 100, 30)
	check("a sealed memtable beside the active ones", 180)
	if err := a.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	check("a flushed", 50)
	if err := b.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	check("b closed", 0)
	insert(a, 130, 20)
	check("a written again", 20)
	if err := a.Drop(); err != nil {
		t.Fatal(err)
	}
	check("a dropped", 0)
	testutil.CheckNoLeaks(t, before)
}
