package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/cache"
	"blendhouse/internal/exec"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

const (
	eDim = 8
	eN   = 500
)

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Store == nil {
		// BH_CHAOS=1 re-runs every engine test over fault-injected
		// storage behind the retry layer.
		cfg.Store = storage.MaybeChaosFromEnv(storage.NewMemStore())
	}
	if cfg.SegmentRows == 0 {
		cfg.SegmentRows = 200
	}
	if cfg.WAL == nil {
		// Segments are cut where a test flushes, never by a timer or a
		// size trigger.
		cfg.WAL = noFlushWAL()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// flush cuts table's logged rows into segments.
func flush(t *testing.T, e *Engine, table string) {
	t.Helper()
	if err := e.Table(table).FlushWAL(); err != nil {
		t.Fatal(err)
	}
}

func vecLit(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%g", f)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// seedImages creates the paper-Example-1-style table and loads eN rows
// into segments.
func seedImages(t *testing.T, e *Engine) *dataset.Dataset {
	t.Helper()
	ds := logImages(t, e)
	flush(t, e, "images")
	return ds
}

// logImages is seedImages without the flush: the rows stay in the
// table's memtable.
func logImages(t *testing.T, e *Engine) *dataset.Dataset {
	t.Helper()
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE images (
		id UInt64,
		label String,
		published_time DateTime,
		score Float64,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE HNSW('DIM=%d','M=8','EF_CONSTRUCTION=64','SEED=3')
	) ORDER BY published_time`, eDim))
	ds := dataset.Small(eN, eDim, 17)
	labels := []string{"animal", "city", "food"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO images VALUES ")
	for i := 0; i < eN; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d, %g, %s)",
			i, labels[i%3], 1000+i, float64(i)/eN, vecLit(ds.Vectors.Row(i)))
	}
	mustExec(t, e, sb.String())
	return ds
}

func mustExec(t *testing.T, e *Engine, src string) *exec.Result {
	t.Helper()
	res, err := e.Exec(context.Background(), src)
	if err != nil {
		t.Fatalf("Exec(%.80s...): %v", src, err)
	}
	return res
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	q := ds.Queries.Row(0)
	res := mustExec(t, e, fmt.Sprintf(
		`SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q)))
	if len(res.Rows) != 10 || len(res.Columns) != 2 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	// Distances ascending and true Euclidean (vs oracle).
	truth := ds.GroundTruth(vec.L2, 10, nil)
	want := map[int64]bool{}
	for _, id := range truth[0] {
		want[id] = true
	}
	hitCount := 0
	prev := -1.0
	for _, row := range res.Rows {
		id := row[0].(int64)
		d := row[1].(float64)
		if d < prev {
			t.Fatalf("distances not ascending: %v then %v", prev, d)
		}
		prev = d
		if want[id] {
			hitCount++
		}
		exact := math.Sqrt(float64(vec.L2Squared(q, ds.Vectors.Row(int(id)))))
		if math.Abs(exact-d) > 1e-3 {
			t.Fatalf("reported distance %v != exact %v", d, exact)
		}
	}
	if hitCount < 9 {
		t.Fatalf("recall@10 = %d/10", hitCount)
	}
}

func TestHybridFilteredSearch(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	q := ds.Queries.Row(1)
	res := mustExec(t, e, fmt.Sprintf(
		`SELECT id, label, dist FROM images WHERE label = 'animal' AND published_time >= 1100
		 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q)))
	if len(res.Rows) == 0 {
		t.Fatal("no results")
	}
	for _, row := range res.Rows {
		id := row[0].(int64)
		if row[1].(string) != "animal" {
			t.Fatalf("row %d violates label filter: %v", id, row[1])
		}
		if id%3 != 0 {
			t.Fatalf("id %d should not be 'animal'", id)
		}
		if 1000+id < 1100 {
			t.Fatalf("id %d violates time filter", id)
		}
	}
}

func TestHybridRecallMatchesFilteredOracle(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	keep := func(i int) bool { return i%3 == 0 && 1000+i >= 1100 }
	truth := ds.GroundTruth(vec.L2, 10, keep)
	hits, total := 0, 0
	for qi := 0; qi < 20; qi++ {
		res := mustExec(t, e, fmt.Sprintf(
			`SELECT id FROM images WHERE label = 'animal' AND published_time >= 1100
			 ORDER BY L2Distance(embedding, %s) LIMIT 10 SETTINGS ef_search=128`, vecLit(ds.Queries.Row(qi))))
		want := map[int64]bool{}
		for _, id := range truth[qi] {
			want[id] = true
		}
		total += len(truth[qi])
		for _, row := range res.Rows {
			if want[row[0].(int64)] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.85 {
		t.Fatalf("filtered recall = %.3f", recall)
	}
}

func TestAllThreeStrategiesAgree(t *testing.T) {
	ds := dataset.Small(eN, eDim, 17)
	q := ds.Queries.Row(3)
	sqlText := fmt.Sprintf(
		`SELECT id FROM images WHERE published_time BETWEEN 1050 AND 1400
		 ORDER BY L2Distance(embedding, %s) LIMIT 10 SETTINGS ef_search=256`, vecLit(q))
	var results [][]int64
	for _, strat := range []plan.Strategy{plan.BruteForce, plan.PreFilter, plan.PostFilter} {
		strat := strat
		e := newEngine(t, Config{Planner: plan.PlannerConfig{ForceStrategy: &strat}})
		seedImages(t, e)
		res := mustExec(t, e, sqlText)
		ids := make([]int64, len(res.Rows))
		for i, row := range res.Rows {
			ids[i] = row[0].(int64)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		results = append(results, ids)
	}
	// Brute force is exact; ANN strategies must overlap heavily.
	for s := 1; s < 3; s++ {
		overlap := 0
		want := map[int64]bool{}
		for _, id := range results[0] {
			want[id] = true
		}
		for _, id := range results[s] {
			if want[id] {
				overlap++
			}
		}
		if overlap < 8 {
			t.Fatalf("strategy %d overlaps brute force on only %d/10 (%v vs %v)", s, overlap, results[s], results[0])
		}
	}
}

func TestRangeQuery(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	q := ds.Queries.Row(0)
	// Radius covering ~the 20 nearest.
	truth := ds.GroundTruth(vec.L2, 20, nil)
	worst := math.Sqrt(float64(vec.L2Squared(q, ds.Vectors.Row(int(truth[0][19]))))) + 1e-6
	res := mustExec(t, e, fmt.Sprintf(
		`SELECT id, dist FROM images WHERE L2Distance(embedding, %s) <= %g
		 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 100 SETTINGS ef_search=256`,
		vecLit(q), worst, vecLit(q)))
	if len(res.Rows) < 15 || len(res.Rows) > 21 {
		t.Fatalf("range query returned %d rows, expected ~20", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].(float64) > worst {
			t.Fatalf("distance %v beyond radius %v", row[1], worst)
		}
	}
}

func TestScalarOnlyQueryAndOrdering(t *testing.T) {
	e := newEngine(t, Config{})
	seedImages(t, e)
	res := mustExec(t, e, `SELECT id, published_time FROM images WHERE id < 10 ORDER BY published_time DESC LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 9 || res.Rows[4][0].(int64) != 5 {
		t.Fatalf("DESC ordering wrong: %v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	res := mustExec(t, e, fmt.Sprintf(
		`SELECT * FROM images ORDER BY L2Distance(embedding, %s) AS d LIMIT 3`, vecLit(ds.Queries.Row(0))))
	// 5 schema columns + distance alias.
	if len(res.Columns) != 6 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if v, ok := res.Rows[0][4].([]float32); !ok || len(v) != eDim {
		t.Fatalf("embedding column = %T", res.Rows[0][4])
	}
}

func TestInsertCSVInfile(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `CREATE TABLE t (id UInt64, name String, v Array(Float32),
		INDEX i v TYPE FLAT('DIM=2'))`)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	csv := "1,alpha,0.1;0.2\n2,beta,0.3;0.4\n3,gamma,0.5;0.6\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, fmt.Sprintf(`INSERT INTO t CSV INFILE '%s'`, path))
	if !strings.Contains(res.Rows[0][0].(string), "3 rows") {
		t.Fatalf("status = %v", res.Rows[0][0])
	}
	out := mustExec(t, e, `SELECT id, name FROM t ORDER BY L2Distance(v, [0.3, 0.4]) LIMIT 1`)
	if out.Rows[0][0].(int64) != 2 || out.Rows[0][1].(string) != "beta" {
		t.Fatalf("row = %v", out.Rows[0])
	}
}

func TestDropTable(t *testing.T) {
	e := newEngine(t, Config{})
	seedImages(t, e)
	mustExec(t, e, `DROP TABLE images`)
	if _, err := e.Exec(context.Background(), `SELECT id FROM images LIMIT 1`); err == nil {
		t.Fatal("query after drop should fail")
	}
	if _, err := e.Exec(context.Background(), `DROP TABLE images`); err == nil {
		t.Fatal("double drop should fail")
	}
	// Blobs gone.
	keys, _ := e.cfg.Store.List("tables/images/")
	if len(keys) != 0 {
		t.Fatalf("stale blobs: %v", keys)
	}
}

func TestEngineRecoversCatalogFromStore(t *testing.T) {
	store := storage.NewMemStore()
	e := newEngine(t, Config{Store: store})
	ds := seedImages(t, e)
	// Fresh engine over the same store: tables must reappear.
	e2 := newEngine(t, Config{Store: store})
	if e2.Table("images") == nil {
		t.Fatal("table not recovered")
	}
	res := mustExec(t, e2, fmt.Sprintf(
		`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5`, vecLit(ds.Queries.Row(0))))
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestCreateTableErrors(t *testing.T) {
	e := newEngine(t, Config{})
	bad := []string{
		`CREATE TABLE t (v Array(Float32))`,                         // vector without index DIM
		`CREATE TABLE t (id UInt64, INDEX i id TYPE HNSW('DIM=4'))`, // index on scalar
		`CREATE TABLE t (id Whatever)`,
		`CREATE TABLE t (id UInt64, v Array(Float32), INDEX a v TYPE HNSW('DIM=2'), INDEX b v TYPE FLAT('DIM=2'))`,
	}
	for _, src := range bad {
		if _, err := e.Exec(context.Background(), src); err == nil {
			t.Errorf("Exec(%q) unexpectedly succeeded", src)
		}
	}
	mustExec(t, e, `CREATE TABLE t (id UInt64)`)
	if _, err := e.Exec(context.Background(), `CREATE TABLE t (id UInt64)`); err == nil {
		t.Error("duplicate create should fail")
	}
}

func TestInsertTypeErrors(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `CREATE TABLE t (id UInt64, v Array(Float32), INDEX i v TYPE FLAT('DIM=2'))`)
	bad := []string{
		`INSERT INTO t VALUES (1)`,                // arity
		`INSERT INTO t VALUES ('x', [0.1, 0.2])`,  // type
		`INSERT INTO t VALUES (1, [0.1])`,         // dim
		`INSERT INTO t VALUES (1, 'notavector')`,  // type
		`INSERT INTO nope VALUES (1, [0.1, 0.2])`, // table
	}
	for _, src := range bad {
		if _, err := e.Exec(context.Background(), src); err == nil {
			t.Errorf("Exec(%q) unexpectedly succeeded", src)
		}
	}
}

func TestUpdateVisibilityThroughQueries(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	tab := e.Table("images")
	// Supersede row 0 with a far-away vector; searches near the old
	// vector must no longer return id 0's old version.
	q := vec.Copy(ds.Vectors.Row(0))
	res := mustExec(t, e, fmt.Sprintf(
		`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 1 SETTINGS ef_search=128`, vecLit(q)))
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("expected id 0 nearest its own vector, got %v", res.Rows[0][0])
	}
	far := make([]float32, eDim)
	for i := range far {
		far[i] = 100
	}
	upd, err := BuildBatch(tab.Schema(), [][]any{{int64(0), "animal", int64(1000), 0.0, far}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Update(context.Background(), "id", upd); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, fmt.Sprintf(
		`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 3 SETTINGS ef_search=128`, vecLit(q)))
	for _, row := range res.Rows {
		if row[0].(int64) == 0 {
			t.Fatal("superseded row version still visible")
		}
	}
	// The new version is findable near its new location.
	res = mustExec(t, e, fmt.Sprintf(
		`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 1`, vecLit(far)))
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("new version not found: %v", res.Rows[0][0])
	}
}

func TestColumnCacheIntegration(t *testing.T) {
	cfg := cache.DefaultColumnCacheConfig()
	e := newEngine(t, Config{ColumnCache: &cfg})
	ds := seedImages(t, e)
	sqlText := fmt.Sprintf(`SELECT id, label FROM images ORDER BY L2Distance(embedding, %s) LIMIT 10`, vecLit(ds.Queries.Row(0)))
	mustExec(t, e, sqlText)
	mustExec(t, e, sqlText)
	// Second run should have hit the column cache at least once.
	// (We can't reach the cache instance directly through Config, so
	// assert via the executor's wiring.)
	if e.colCache == nil {
		t.Fatal("column cache not constructed")
	}
	hits, _, _ := e.colCache.Stats()
	if hits == 0 {
		t.Fatal("no column cache hits on repeated query")
	}
}

func TestSemanticPruningOnClusteredTable(t *testing.T) {
	e := newEngine(t, Config{SemanticFraction: 0.3, SegmentRows: 50})
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE c (
		id UInt64,
		embedding Array(Float32),
		INDEX i embedding TYPE HNSW('DIM=%d','SEED=2')
	) CLUSTER BY embedding INTO 8 BUCKETS`, eDim))
	ds := dataset.Small(eN, eDim, 23)
	var sb strings.Builder
	sb.WriteString("INSERT INTO c VALUES ")
	for i := 0; i < eN; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %s)", i, vecLit(ds.Vectors.Row(i)))
	}
	mustExec(t, e, sb.String())
	truth := ds.GroundTruth(vec.L2, 10, nil)
	hits, total := 0, 0
	for qi := 0; qi < 20; qi++ {
		res := mustExec(t, e, fmt.Sprintf(
			`SELECT id FROM c ORDER BY L2Distance(embedding, %s) LIMIT 10 SETTINGS ef_search=128`, vecLit(ds.Queries.Row(qi))))
		want := map[int64]bool{}
		for _, id := range truth[qi] {
			want[id] = true
		}
		total += len(truth[qi])
		for _, row := range res.Rows {
			if want[row[0].(int64)] {
				hits++
			}
		}
	}
	// Semantic pruning searches ~30% of segments; on clustered data
	// the nearest buckets hold the true neighbors, so recall stays
	// high.
	if r := float64(hits) / float64(total); r < 0.85 {
		t.Fatalf("semantically pruned recall = %.3f", r)
	}
}

func TestTablesListing(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `CREATE TABLE a (id UInt64)`)
	mustExec(t, e, `CREATE TABLE b (id UInt64)`)
	names := e.Tables()
	sort.Strings(names)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("tables = %v", names)
	}
}

func TestShowTablesAndDescribe(t *testing.T) {
	e := newEngine(t, Config{})
	seedImages(t, e)
	res := mustExec(t, e, `SHOW TABLES`)
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "images" {
		t.Fatalf("SHOW TABLES = %v", res.Rows)
	}
	if res.Rows[0][1].(int64) != eN {
		t.Fatalf("row count = %v", res.Rows[0][1])
	}
	d := mustExec(t, e, `DESCRIBE images`)
	if len(d.Rows) != 5 {
		t.Fatalf("DESCRIBE rows = %d", len(d.Rows))
	}
	foundIdx := false
	for _, row := range d.Rows {
		if row[0].(string) == "embedding" && strings.Contains(row[2].(string), "INDEX HNSW") {
			foundIdx = true
		}
	}
	if !foundIdx {
		t.Fatalf("index annotation missing: %v", d.Rows)
	}
	if _, err := e.Exec(context.Background(), `DESCRIBE nope`); err == nil {
		t.Fatal("describe missing table should fail")
	}
}

func TestDeleteAndOptimizeStatements(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	res := mustExec(t, e, `DELETE FROM images WHERE id IN (0, 1, 2)`)
	if !strings.Contains(res.Rows[0][0].(string), "3 rows") {
		t.Fatalf("delete status = %v", res.Rows[0][0])
	}
	// Deleted rows must vanish from searches.
	out := mustExec(t, e, fmt.Sprintf(
		`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 20 SETTINGS ef_search=128`,
		vecLit(ds.Vectors.Row(0))))
	for _, row := range out.Rows {
		if id := row[0].(int64); id <= 2 {
			t.Fatalf("deleted id %d still visible", id)
		}
	}
	if e.Table("images").Rows() != eN-3 {
		t.Fatalf("rows = %d", e.Table("images").Rows())
	}
	// OPTIMIZE compacts everything and drops the bitmaps.
	res = mustExec(t, e, `OPTIMIZE TABLE images`)
	if !strings.Contains(res.Rows[0][0].(string), "OK: compacted") {
		t.Fatalf("optimize status = %v", res.Rows[0][0])
	}
	if e.Table("images").SegmentCount() != 1 || e.Table("images").DeletedRows() != 0 {
		t.Fatalf("after optimize: %d segments, %d deleted", e.Table("images").SegmentCount(), e.Table("images").DeletedRows())
	}
	// Single-key form.
	mustExec(t, e, `DELETE FROM images WHERE id = 5`)
	if e.Table("images").Rows() != eN-4 {
		t.Fatalf("rows after single delete = %d", e.Table("images").Rows())
	}
}

func TestBackgroundCompaction(t *testing.T) {
	e := newEngine(t, Config{SegmentRows: 100, CompactionInterval: 30 * time.Millisecond})
	defer e.Close()
	ds := seedImages(t, e) // 500 rows / 100 = 5 segments
	if e.Table("images").SegmentCount() < 4 {
		t.Fatalf("segments = %d", e.Table("images").SegmentCount())
	}
	// Open the pre-merge segments' indexes, so the merge has handles to
	// retire.
	query := fmt.Sprintf(`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5`, vecLit(ds.Queries.Row(0)))
	mustExec(t, e, query)
	deadline := time.Now().Add(5 * time.Second)
	for e.Table("images").SegmentCount() > 1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := e.Table("images").SegmentCount(); got != 1 {
		t.Fatalf("background compaction did not converge: %d segments", got)
	}
	// Queries still work on the compacted table, and once the query
	// that last named the merged inputs has released its Version, the
	// executor holds the merged segment's handle and nothing retired.
	live := liveSegmentNames(e, "images")
	for {
		res := mustExec(t, e, query)
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		held := e.Executor("images").LoadedIndexSegments()
		if slices.Equal(held, live) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("executor holds %v after compaction, live segments are %v", held, live)
		}
		time.Sleep(20 * time.Millisecond)
	}
	e.Close()
	e.Close() // idempotent
}

func TestConcurrentQueriesWholeStack(t *testing.T) {
	ccCfg := cache.DefaultColumnCacheConfig()
	e := newEngine(t, Config{ColumnCache: &ccCfg})
	ds := seedImages(t, e)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q := ds.Queries.Row((g*7 + i) % ds.Queries.Rows())
				var sqlText string
				switch i % 3 {
				case 0:
					sqlText = fmt.Sprintf(`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5`, vecLit(q))
				case 1:
					sqlText = fmt.Sprintf(`SELECT id, label FROM images WHERE label = 'city' ORDER BY L2Distance(embedding, %s) LIMIT 5`, vecLit(q))
				default:
					sqlText = `SELECT id FROM images WHERE id BETWEEN 10 AND 20 LIMIT 5`
				}
				if _, err := e.Exec(context.Background(), sqlText); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
