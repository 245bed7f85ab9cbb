package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
	"blendhouse/pkg/api"
)

// TestDefaultConfigRunsTheWAL: a Config that leaves WAL nil still runs
// every table's write-ahead log, with lsm.WALConfig's defaults: an
// INSERT lands in the memtable, Close flushes it, and a write after
// Close is refused as read-only.
func TestDefaultConfigRunsTheWAL(t *testing.T) {
	e, err := New(Config{Store: storage.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, "CREATE TABLE t (id UInt64, v Array(Float32), INDEX ann v TYPE FLAT('DIM=2'))")
	mustExec(t, e, "INSERT INTO t VALUES (1, [0, 1]), (2, [1, 0])")
	tab := e.Table("t")
	if tab.MemRows() != 2 || tab.SegmentCount() != 0 {
		t.Fatalf("after INSERT: mem=%d segments=%d, want both rows in the memtable", tab.MemRows(), tab.SegmentCount())
	}
	e.Close()
	if tab.MemRows() != 0 || tab.Rows() != 2 {
		t.Fatalf("after Close: mem=%d rows=%d, want both rows flushed", tab.MemRows(), tab.Rows())
	}
	for _, src := range []string{"INSERT INTO t VALUES (3, [1, 1])", "DELETE FROM t WHERE id IN (1)"} {
		if _, err := e.Exec(context.Background(), src); !errors.Is(err, lsm.ErrReadOnly) {
			t.Fatalf("%s after Close: err = %v, want lsm.ErrReadOnly", src, err)
		}
	}
}

// TestWritesRacingDropTableNeverResurrect: INSERTs and DELETEs racing
// DROP TABLE either land before the drop or fail as UNKNOWN_TABLE. None
// stores a blob for the dropped table, which stays gone on reopen.
func TestWritesRacingDropTableNeverResurrect(t *testing.T) {
	const rounds, writers = 200, 4
	ctx := context.Background()
	for round := range rounds {
		store := storage.NewMemStore()
		e := newEngine(t, Config{Store: store})
		mustExec(t, e, "CREATE TABLE t (id UInt64, v Array(Float32), INDEX ann v TYPE FLAT('DIM=2'))")
		var (
			wg      sync.WaitGroup
			started atomic.Int64
		)
		errs := make(chan error, writers)
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					src := fmt.Sprintf("INSERT INTO t VALUES (%d, [%d, 1])", w*1_000_000+i, i)
					if i%3 == 2 {
						src = fmt.Sprintf("DELETE FROM t WHERE id IN (%d)", w*1_000_000+i-1)
					}
					_, err := e.Exec(ctx, src)
					started.Add(1)
					if err != nil {
						if !errors.Is(err, api.ErrUnknownTable) {
							errs <- fmt.Errorf("round %d: %s: %w", round, src, err)
						}
						return
					}
				}
			}()
		}
		for started.Load() < int64(writers) {
			runtime.Gosched()
		}
		mustExec(t, e, "DROP TABLE t")
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("a write racing DROP TABLE failed outside UNKNOWN_TABLE: %v", err)
		}
		e.Close()
		if keys, err := store.List("tables/t/"); err != nil || len(keys) != 0 {
			t.Fatalf("round %d: the dropped table's directory holds %v (%v)", round, keys, err)
		}
		if re := newEngine(t, Config{Store: store}); re.Table("t") != nil {
			t.Fatalf("round %d: the dropped table came back on reopen", round)
		}
	}
}
