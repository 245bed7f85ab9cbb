package core

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/internal/cache"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
)

// explainText flattens a one-column explain result for matching.
func explainText(t *testing.T, e *Engine, src string) string {
	t.Helper()
	res := mustExec(t, e, src)
	if len(res.Columns) != 1 || res.Columns[0] != "explain" {
		t.Fatalf("explain columns = %v", res.Columns)
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].(string))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExplainPlanOnly(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	txt := explainText(t, e, fmt.Sprintf(
		"EXPLAIN SELECT id FROM images WHERE score > 0.5 ORDER BY L2Distance(embedding, %s) LIMIT 5",
		vecLit(ds.Queries.Row(0))))
	if !strings.Contains(txt, "plan: ") {
		t.Fatalf("no plan line:\n%s", txt)
	}
	// Plan-only EXPLAIN must not contain the executed span tree.
	if strings.Contains(txt, "executed:") {
		t.Fatalf("plain EXPLAIN executed the query:\n%s", txt)
	}
	if !strings.Contains(txt, "segments") {
		t.Fatalf("no table shape line:\n%s", txt)
	}
}

// TestExplainCountsSegmentKinds: the table line says what each segment
// is. Under auto-index the three segments of 200, 200 and 100 rows are
// all under autoindex.MinIndexRows, so each is an exact flat scan.
func TestExplainCountsSegmentKinds(t *testing.T) {
	for _, c := range []struct {
		auto bool
		want string
	}{
		{true, "table: images (3 segments: 3 flat, 500 rows)"},
		{false, "table: images (3 segments: 3 hnsw, 500 rows)"},
	} {
		e := newEngine(t, Config{AutoIndex: c.auto})
		ds := seedImages(t, e)
		txt := explainText(t, e, fmt.Sprintf(
			"EXPLAIN SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5", vecLit(ds.Queries.Row(0))))
		if !strings.Contains(txt, c.want+"\n") {
			t.Fatalf("auto-index %t: want %q in\n%s", c.auto, c.want, txt)
		}
	}
}

func TestExplainAnalyzeMultiSegment(t *testing.T) {
	ccCfg := cache.DefaultColumnCacheConfig()
	ccCfg.RowLimit = eN + 1 // admit everything: the tallies must move
	e := newEngine(t, Config{ColumnCache: &ccCfg})
	ds := seedImages(t, e)
	// eN=500 rows at SegmentRows=200 → 3 segments; every one must show
	// up as a scan child span.
	txt := explainText(t, e, fmt.Sprintf(
		"EXPLAIN ANALYZE SELECT id FROM images WHERE score > 0.1 ORDER BY L2Distance(embedding, %s) LIMIT 5",
		vecLit(ds.Queries.Row(0))))
	for _, want := range []string{"plan: ", "executed:", "query  (", "scan  (", "segment ", "cache: column hits="} {
		if !strings.Contains(txt, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, txt)
		}
	}
	if got := strings.Count(txt, "segment "); got < 3 {
		t.Fatalf("want >=3 per-segment spans, got %d:\n%s", got, txt)
	}
	// The chosen plan must be one of the paper's A/B/C letters.
	if !strings.Contains(txt, "plan: A") && !strings.Contains(txt, "plan: B") && !strings.Contains(txt, "plan: C") {
		t.Fatalf("no A/B/C plan letter:\n%s", txt)
	}
	// Column cache was exercised by predicate + projection reads.
	if strings.Contains(txt, "cache: column hits=0 misses=0") {
		t.Fatalf("column cache tallies all zero:\n%s", txt)
	}
}

// readCountStore counts every read beneath the engine's store stack.
type readCountStore struct {
	storage.BlobStore
	reads atomic.Int64
}

func (s *readCountStore) Get(key string) ([]byte, error) {
	s.reads.Add(1)
	return s.BlobStore.Get(key)
}

func (s *readCountStore) GetRange(key string, off, n int64) ([]byte, error) {
	s.reads.Add(1)
	return s.BlobStore.GetRange(key, off, n)
}

// spanInt reads the integer attribute key from the first EXPLAIN
// ANALYZE line that starts (after indentation) with span.
func spanInt(t *testing.T, txt, span, key string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^\s*` + regexp.QuoteMeta(span) + `  \(.*\b` + key + `=(\d+)`).FindStringSubmatch(txt)
	if m == nil {
		t.Fatalf("no %s=N on a %q span:\n%s", key, span, txt)
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

// TestStorageSpanCountsIndexLoads: a cold query's "storage" span counts
// every store read the query made, the index blobs it opens included.
func TestStorageSpanCountsIndexLoads(t *testing.T) {
	store := &readCountStore{BlobStore: storage.NewMemStore()}
	e := newEngine(t, Config{Store: store})
	ds := seedImages(t, e)
	e.Executor("images").InvalidateLocalIndexes()
	before := store.reads.Load()
	txt := explainText(t, e, fmt.Sprintf(
		"EXPLAIN ANALYZE SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 10", vecLit(ds.Queries.Row(0))))
	made := store.reads.Load() - before
	if got := spanInt(t, txt, "storage", "reads"); got != made {
		t.Fatalf("storage span reads=%d, the store served %d:\n%s", got, made, txt)
	}
	if made < 3 {
		t.Fatalf("a cold query over 3 segments made %d store reads, want its index loads among them", made)
	}
}

// TestExplainAnalyzeShowsRetries: a column read that the retry layer
// repeats shows up as store_retries on EXPLAIN ANALYZE's root span.
func TestExplainAnalyzeShowsRetries(t *testing.T) {
	fault := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
	e := newEngine(t, Config{Store: fault, Retry: &storage.RetryConfig{MaxAttempts: 3, BaseBackoff: time.Microsecond, Seed: 1}})
	ds := seedImages(t, e)
	var mu sync.Mutex
	failed := map[string]bool{}
	fault.SetHook(func(op storage.FaultOp, key string) error {
		if (op != storage.FaultOpGet && op != storage.FaultOpGetRange) || !strings.Contains(key, "/col_") {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if failed[key] {
			return nil
		}
		failed[key] = true // each column blob's first GET fails once
		return &storage.TransientError{Err: errors.New("injected")}
	})
	txt := explainText(t, e, fmt.Sprintf(
		"EXPLAIN ANALYZE SELECT id FROM images WHERE score > 0.1 ORDER BY L2Distance(embedding, %s) LIMIT 5", vecLit(ds.Queries.Row(0))))
	if got := spanInt(t, txt, "query", "store_retries"); got < 1 {
		t.Fatalf("store_retries=%d after %d failed column reads:\n%s", got, len(failed), txt)
	}
}

func TestShowMetricsNonZeroAfterQueries(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	mustExec(t, e, fmt.Sprintf(
		"SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5", vecLit(ds.Queries.Row(0))))
	res := mustExec(t, e, "SHOW METRICS")
	if len(res.Columns) != 2 || res.Columns[0] != "metric" {
		t.Fatalf("columns = %v", res.Columns)
	}
	vals := map[string]int64{}
	for _, r := range res.Rows {
		vals[r[0].(string)] = r[1].(int64)
	}
	if vals["bh.query.total"] == 0 {
		t.Fatalf("bh.query.total = 0 after a query; metrics: %v", vals)
	}
	if vals["bh.query.vector.total"] == 0 {
		t.Fatalf("bh.query.vector.total = 0 after a vector query")
	}
	if vals["bh.query.latency.count"] == 0 {
		t.Fatalf("bh.query.latency.count = 0")
	}
	// The three plan counters must account for every vector query.
	plans := vals["bh.query.plan.brute_force"] + vals["bh.query.plan.pre_filter"] + vals["bh.query.plan.post_filter"]
	if plans < vals["bh.query.vector.total"] {
		t.Fatalf("plan counters (%d) < vector queries (%d)", plans, vals["bh.query.vector.total"])
	}
}

// SHOW METRICS reads its own engine's stat gauges, whatever engines the
// process built since; once an engine closes, the process-wide gauges
// read the newest open one and the registry no longer holds the closed
// engine's planner.
func TestShowMetricsReadsOwnEngine(t *testing.T) {
	a := newEngine(t, Config{})
	ds := seedImages(t, a)
	q := fmt.Sprintf("SELECT id FROM images WHERE label IN ('city', 'beach') ORDER BY L2Distance(embedding, %s) LIMIT 5", vecLit(ds.Queries.Row(0)))
	mustExec(t, a, q)
	mustExec(t, a, q)
	hits, misses, _ := a.Planner().Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("plan cache hits %d, misses %d after a repeated query", hits, misses)
	}

	b, err := New(Config{Store: storage.NewMemStore(), WAL: noFlushWAL()})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(b.Planner(), func(*plan.Planner) { close(collected) })
	b.Close()
	b = nil

	shown := map[string]int64{}
	for _, r := range mustExec(t, a, "SHOW METRICS").Rows {
		shown[r[0].(string)] = r[1].(int64)
	}
	registry := map[string]int64{}
	for _, kv := range obs.Default().Snapshot() {
		registry[kv.Key] = kv.Value
	}
	for name, m := range map[string]map[string]int64{"SHOW METRICS": shown, "the registry": registry} {
		if m["bh.plan.cache.hits"] != hits || m["bh.plan.cache.misses"] != misses {
			t.Errorf("%s: plan cache hits %d, misses %d; the engine's planner counted %d, %d",
				name, m["bh.plan.cache.hits"], m["bh.plan.cache.misses"], hits, misses)
		}
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a closed engine's planner is still reachable")
}

// TestExplainCostsDeterministic: the cost constants are a committed
// table, so two engines over the same data choose the same plans at
// byte-identical estimated costs.
func TestExplainCostsDeterministic(t *testing.T) {
	var texts [2]string
	for i := range texts {
		e := newEngine(t, Config{})
		ds := seedImages(t, e)
		for _, where := range []string{"score > 0.99", "score > 0.5", "label = 'city'"} {
			texts[i] += explainText(t, e, fmt.Sprintf(
				"EXPLAIN SELECT id FROM images WHERE %s ORDER BY L2Distance(embedding, %s) LIMIT 5", where, vecLit(ds.Queries.Row(0))))
		}
	}
	if strings.Count(texts[0], "est_cost: ") != 3 {
		t.Fatalf("want an est_cost line per statement:\n%s", texts[0])
	}
	if texts[0] != texts[1] {
		t.Fatalf("two engines over the same data explain differently:\n%s\nvs\n%s", texts[0], texts[1])
	}
}
