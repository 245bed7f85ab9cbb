package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
	"blendhouse/pkg/api"
)

// TestSequentialParallelEquivalence is the determinism contract of the
// worker pool: the same query must return byte-identical rows at any
// parallelism degree.
func TestSequentialParallelEquivalence(t *testing.T) {
	e := newEngine(t, Config{SegmentRows: 50}) // eN/50 = 10 segments
	ds := seedImages(t, e)
	queries := []string{
		fmt.Sprintf(`SELECT id, label, dist FROM images WHERE label = 'animal' ORDER BY L2Distance(embedding, %s) AS dist LIMIT 20`,
			vecLit(ds.Queries.Row(0))),
		fmt.Sprintf(`SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 17`,
			vecLit(ds.Queries.Row(1))),
		fmt.Sprintf(`SELECT id, score, dist FROM images WHERE published_time >= 1100 AND score < 0.9 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 25`,
			vecLit(ds.Queries.Row(2))),
		`SELECT id, label FROM images WHERE label = 'city' ORDER BY score LIMIT 30`,
	}
	for qi, src := range queries {
		var baseline *[][]any
		for _, par := range []int{1, 4, 16} {
			res, err := e.Query(context.Background(), src, QueryOptions{MaxParallelism: par})
			if err != nil {
				t.Fatalf("query %d at parallelism %d: %v", qi, par, err)
			}
			if baseline == nil {
				baseline = &res.Rows
				continue
			}
			if !reflect.DeepEqual(*baseline, res.Rows) {
				t.Fatalf("query %d: parallelism %d diverged from sequential:\nseq: %v\npar: %v",
					qi, par, *baseline, res.Rows)
			}
		}
	}
}

// slowEngine builds an engine over a simulated remote store with real
// per-operation latency, so queries spend measurable wall time in
// cancellable blob reads.
func slowEngine(t *testing.T, opLatency time.Duration) (*Engine, func() string) {
	t.Helper()
	store := storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{OpLatency: opLatency})
	e := newEngine(t, Config{Store: store, SegmentRows: 25})
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE slowtab (
		id UInt64,
		label String,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE FLAT('DIM=%d')
	) ORDER BY id`, eDim))
	var b []byte
	b = append(b, "INSERT INTO slowtab VALUES "...)
	for i := 0; i < 200; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		vecParts := make([]float32, eDim)
		for d := range vecParts {
			vecParts[d] = float32((i*7+d)%13) / 13
		}
		b = append(b, fmt.Sprintf("(%d, 'l%d', %s)", i, i%4, vecLit(vecParts))...)
	}
	mustExec(t, e, string(b))
	flush(t, e, "slowtab")
	q := make([]float32, eDim)
	for d := range q {
		q[d] = 0.5
	}
	query := func() string {
		return fmt.Sprintf(`SELECT id, label, dist FROM slowtab WHERE label = 'l1' ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q))
	}
	return e, query
}

// TestQueryCancellation cancels a query mid-scan over a
// latency-simulated remote store and checks that it returns
// ErrCanceled promptly and leaks no goroutines.
func TestQueryCancellation(t *testing.T) {
	e, query := slowEngine(t, 10*time.Millisecond)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := e.Query(ctx, query(), QueryOptions{})
		errCh <- err
	}()
	time.Sleep(15 * time.Millisecond) // let the scan get going
	cancel()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query did not return within 5s")
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled query returned nil error")
	}
	if !errors.Is(err, api.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause context.Canceled lost from chain: %v", err)
	}
	// The query must unwind promptly, not run its remaining dozens of
	// 10ms blob reads to completion.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled query took %v to return", elapsed)
	}
	// All pool workers must have exited.
	testutil.CheckNoLeaks(t, before)
}

// TestQueryTimeout drives the QueryOptions.Timeout path (and therefore
// SET statement_timeout in the shell) to ErrTimeout.
func TestQueryTimeout(t *testing.T) {
	e, query := slowEngine(t, 10*time.Millisecond)
	_, err := e.Query(context.Background(), query(), QueryOptions{Timeout: 5 * time.Millisecond})
	if !errors.Is(err, api.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause context.DeadlineExceeded lost from chain: %v", err)
	}
	// A generous timeout succeeds.
	if _, err := e.Query(context.Background(), query(), QueryOptions{Timeout: 30 * time.Second}); err != nil {
		t.Fatalf("query under generous timeout: %v", err)
	}
}

// TestErrorTaxonomy checks the remaining sentinel classes.
func TestErrorTaxonomy(t *testing.T) {
	e := newEngine(t, Config{})
	if _, err := e.Exec(context.Background(), `SELECT id FROM nosuch LIMIT 1`); !errors.Is(err, api.ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable, got %v", err)
	}
	if _, err := e.Exec(context.Background(), `SELEKT garbage`); !errors.Is(err, api.ErrPlan) {
		t.Fatalf("want ErrPlan, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Exec(ctx, `SHOW TABLES`); !errors.Is(err, api.ErrCanceled) {
		t.Fatalf("pre-cancelled ctx: want ErrCanceled, got %v", err)
	}
}

// TestConcurrentQueryAndInvalidate stress-races parallel queries
// against index-cache invalidation (what background compaction does).
// Run under -race this doubles as the data-race check for the shared
// executor state.
func TestConcurrentQueryAndInvalidate(t *testing.T) {
	e := newEngine(t, Config{SegmentRows: 50})
	ds := seedImages(t, e)
	src := fmt.Sprintf(`SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`,
		vecLit(ds.Queries.Row(0)))
	stop := make(chan struct{})
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		defer invalidator.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Executor("images").InvalidateLocalIndexes()
			}
		}
	}()
	const workers = 4
	var queries sync.WaitGroup
	queries.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer queries.Done()
			for i := 0; i < 25; i++ {
				if _, err := e.Query(context.Background(), src, QueryOptions{MaxParallelism: 4}); err != nil {
					t.Errorf("query under invalidation: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { queries.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test did not finish")
	}
	close(stop)
	invalidator.Wait()
}
