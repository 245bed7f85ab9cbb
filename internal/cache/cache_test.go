package cache

import (
	"context"
	"testing"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string](100)
	if !c.Put("a", 1, 40) || !c.Put("b", 2, 40) {
		t.Fatal("puts within budget should succeed")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get a = %v, %v", v, ok)
	}
	// "a" is now MRU; adding 40 more evicts "b".
	c.Put("c", 3, 40)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive (recently used)")
	}
	if c.SizeBytes() != 80 {
		t.Fatalf("size = %d", c.SizeBytes())
	}
}

func TestLRURejectsOversized(t *testing.T) {
	c := NewLRU[string](10)
	if c.Put("big", 1, 11) {
		t.Fatal("oversized entry must be rejected")
	}
	if c.Len() != 0 {
		t.Fatal("rejected entry must not be stored")
	}
}

func TestLRUReplaceAdjustsSize(t *testing.T) {
	c := NewLRU[string](100)
	c.Put("k", 1, 30)
	c.Put("k", 2, 50)
	if c.SizeBytes() != 50 || c.Len() != 1 {
		t.Fatalf("size=%d len=%d", c.SizeBytes(), c.Len())
	}
	if v, _ := c.Get("k"); v.(int) != 2 {
		t.Fatal("replace lost new value")
	}
}

// PutIf shows its gate the entries a Put would evict, oldest first and
// none when the entry fits; a refused entry leaves the cache as it was.
func TestLRUPutIfListsVictims(t *testing.T) {
	c := NewLRU[string](100)
	var seen [][]string
	gate := func(ok bool) func([]string) bool {
		return func(v []string) bool { seen = append(seen, v); return ok }
	}
	if !c.PutIf("a", 1, 30, gate(true)) || !c.PutIf("b", 2, 30, gate(true)) || !c.PutIf("c", 3, 30, gate(true)) {
		t.Fatal("admitted puts within budget must store")
	}
	for i, v := range seen {
		if v != nil {
			t.Fatalf("put %d fits in free space, gate saw victims %v", i, v)
		}
	}
	seen = nil
	if c.PutIf("d", 4, 50, gate(false)) {
		t.Fatal("refused put reported stored")
	}
	if len(seen) != 1 || len(seen[0]) != 2 || seen[0][0] != "a" || seen[0][1] != "b" {
		t.Fatalf("gate saw victims %v, want [a b]", seen)
	}
	if c.Len() != 3 || c.SizeBytes() != 90 || !c.Contains("a") {
		t.Fatalf("refused put changed the cache: len=%d size=%d", c.Len(), c.SizeBytes())
	}
	// Replacing an entry counts only the growth and never lists itself.
	seen = nil
	if !c.PutIf("a", 5, 50, gate(true)) || len(seen[0]) != 1 || seen[0][0] != "b" {
		t.Fatalf("replace: gate saw %v, want [b]", seen)
	}
	if c.Contains("b") || c.SizeBytes() != 80 {
		t.Fatalf("admitted replace did not evict b: size=%d", c.SizeBytes())
	}
}

func TestLRUEvictCallback(t *testing.T) {
	c := NewLRU[string](50)
	var evicted []string
	c.SetOnEvict(func(k string, _ any) { evicted = append(evicted, k) })
	c.Put("a", 1, 30)
	c.Put("b", 2, 30) // evicts a
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted = %v", evicted)
	}
	c.Remove("b")
	if len(evicted) != 1 {
		t.Fatal("Remove must not trigger callback")
	}
}

func TestLRUStats(t *testing.T) {
	c := NewLRU[string](100)
	c.Put("a", 1, 10)
	c.Get("a")
	c.Get("zz")
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d", h, m)
	}
	if !c.Contains("a") {
		t.Fatal("Contains false negative")
	}
	if v, ok := c.Peek("a"); !ok || v.(int) != 1 {
		t.Fatalf("Peek a = %v, %v", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Fatal("Peek false positive")
	}
	h2, m2 := c.Stats()
	if h2 != h || m2 != m {
		t.Fatal("Contains and Peek must not affect stats")
	}
	// Nor recency: "a" is older than "b" and Peek leaves it so.
	c.Put("b", 2, 60)
	c.Peek("a")
	c.Put("c", 3, 40)
	if c.Contains("a") || !c.Contains("b") {
		t.Fatal("Peek refreshed an entry's recency")
	}
}

func TestLRUZeroCapacityStoresNothing(t *testing.T) {
	c := NewLRU[string](0)
	if c.Put("a", 1, 1) {
		t.Fatal("zero-cap cache accepted an entry")
	}
	// Zero-size entries used to slip past the size>cap check and live
	// in a "disabled" cache forever.
	if c.Put("b", 2, 0) {
		t.Fatal("zero-cap cache accepted a zero-size entry")
	}
	if _, ok := c.Get("b"); ok || c.Len() != 0 {
		t.Fatal("disabled cache is holding entries")
	}
	neg := NewLRU[string](-1)
	if neg.Put("a", 1, 0) {
		t.Fatal("negative-cap cache accepted an entry")
	}
}

// TestLRUEvictCallbackMayReenter: eviction callbacks fire outside the
// cache lock, so a callback that re-enters the cache (the disk tier's
// on-evict path) must not deadlock. This test hangs on the old
// fire-under-lock implementation.
func TestLRUEvictCallbackMayReenter(t *testing.T) {
	c := NewLRU[string](50)
	var evicted []string
	c.SetOnEvict(func(k string, _ any) {
		evicted = append(evicted, k)
		// All three re-entrant calls would deadlock under c.mu.
		c.Contains(k)
		c.Get("whatever")
		c.Remove(k)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Put("a", 1, 30)
		c.Put("b", 2, 30) // evicts a → callback re-enters
		c.Put("c", 3, 30) // evicts b
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-entrant eviction callback deadlocked")
	}
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Fatalf("evicted = %v", evicted)
	}
	if c.Len() != 1 || !c.Contains("c") {
		t.Fatalf("cache should hold only c, len=%d", c.Len())
	}
}

// TestLRUEvictCallbackMultipleAtOnce: one oversized Put can evict
// several entries; every one must get its callback, oldest first.
func TestLRUEvictCallbackMultipleAtOnce(t *testing.T) {
	c := NewLRU[string](100)
	var evicted []string
	c.SetOnEvict(func(k string, _ any) { evicted = append(evicted, k) })
	c.Put("a", 1, 30)
	c.Put("b", 2, 30)
	c.Put("c", 3, 30)
	c.Put("big", 4, 90) // must evict a, b and c
	if len(evicted) != 3 || evicted[0] != "a" || evicted[1] != "b" || evicted[2] != "c" {
		t.Fatalf("evicted = %v", evicted)
	}
	if c.SizeBytes() != 90 || c.Len() != 1 {
		t.Fatalf("size=%d len=%d after multi-evict", c.SizeBytes(), c.Len())
	}
}

// --- column cache -----------------------------------------------------------

func colCacheFixture(t *testing.T) (*ColumnCache, *storage.SegmentReader, *storage.RemoteStore) {
	t.Helper()
	schema := &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "id", Type: storage.Int64Type},
		{Name: "v", Type: storage.VectorType, Dim: 2},
	}}
	batch := storage.NewRowBatch(schema)
	for i := 0; i < 64; i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
		batch.Col("v").Vecs = append(batch.Col("v").Vecs, float32(i), float32(i))
	}
	rs := storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{})
	if _, err := storage.WriteSegment(rs, storage.SegmentMeta{Name: "s", Table: "t", Bucket: -1}, batch, 8); err != nil {
		t.Fatal(err)
	}
	rd, err := storage.OpenSegment(rs, schema, "t", "s")
	if err != nil {
		t.Fatal(err)
	}
	cc := NewColumnCache(ColumnCacheConfig{DataBytes: 1 << 20, RowLimit: 10})
	return cc, rd, rs
}

func TestColumnCacheHitsAvoidRemoteReads(t *testing.T) {
	cc, rd, rs := colCacheFixture(t)
	before := rs.Snapshot().Gets
	col, err := cc.ReadRows(context.Background(), rd, "id", []int{3, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if col.Ints[0] != 3 || col.Ints[1] != 5 {
		t.Fatalf("values = %v", col.Ints)
	}
	mid := rs.Snapshot().Gets
	if mid == before {
		t.Fatal("first read should hit remote")
	}
	// Same block again: served from cache, no new remote reads.
	if _, err := cc.ReadRows(context.Background(), rd, "id", []int{4}, 1); err != nil {
		t.Fatal(err)
	}
	if after := rs.Snapshot().Gets; after != mid {
		t.Fatalf("cached read went remote: %d -> %d", mid, after)
	}
}

func TestColumnCacheRowLimitBypass(t *testing.T) {
	cc, rd, _ := colCacheFixture(t)
	rows := make([]int, 20)
	for i := range rows {
		rows[i] = i
	}
	if _, err := cc.ReadRows(context.Background(), rd, "id", rows, 20); err != nil { // 20 > RowLimit 10
		t.Fatal(err)
	}
	if _, _, byp := cc.Stats(); byp != 1 {
		t.Fatalf("bypasses = %d, want 1", byp)
	}
	// Bypassed read must not have populated the cache.
	h, m, _ := cc.Stats()
	if h != 0 || m != 0 {
		t.Fatalf("cache touched during bypass: hits=%d misses=%d", h, m)
	}
}

func TestColumnCacheCrossBlock(t *testing.T) {
	cc, rd, _ := colCacheFixture(t)
	col, err := cc.ReadRows(context.Background(), rd, "v", []int{0, 63, 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if col.Vector(1)[0] != 63 || col.Vector(2)[0] != 8 {
		t.Fatalf("cross-block vectors wrong: %v", col.Vecs)
	}
	if _, err := cc.ReadRows(context.Background(), rd, "id", []int{64}, 1); err == nil {
		t.Error("out-of-range row should fail")
	}
	if _, err := cc.ReadRows(context.Background(), rd, "nope", []int{0}, 1); err == nil {
		t.Error("unknown column should fail")
	}
}

// TestColumnCacheTalliesDistinctGranules pins the accounting contract:
// one read looks each distinct granule up exactly once, however many of
// its rows fall in it and in whatever order, and the per-query tally
// and the cache's own counters both move by that number.
func TestColumnCacheTalliesDistinctGranules(t *testing.T) {
	cc, rd, rs := colCacheFixture(t) // 64 rows in granules of 8
	for _, tc := range []struct {
		rows             []int
		wantHit, wantMis int64
	}{
		{[]int{3}, 0, 1},                                   // cold granule 0
		{[]int{3, 5, 4}, 1, 0},                             // three rows, one granule
		{[]int{0, 63, 8, 1, 62}, 1, 2},                     // granules 0 (warm), 7, 1 — revisits are free
		{[]int{0, 9, 17, 25, 33, 41, 49, 57, 58, 1}, 3, 5}, // ten rows, eight granules: 0, 1, 7 warm
		{[]int{7, 7, 7}, 1, 0},                             // duplicates
	} {
		h0, m0, _ := cc.Stats()
		gets0 := rs.Snapshot().Gets
		tr := obs.NewTrace("q")
		col, err := cc.ReadRows(obs.WithTrace(context.Background(), tr), rd, "id", tc.rows, len(tc.rows))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tc.rows {
			if col.Ints[i] != int64(r) {
				t.Fatalf("rows %v: value %d is %d", tc.rows, i, col.Ints[i])
			}
		}
		th, tm, _ := tr.ColCache.Values()
		h1, m1, _ := cc.Stats()
		if th != tc.wantHit || tm != tc.wantMis || h1-h0 != tc.wantHit || m1-m0 != tc.wantMis {
			t.Fatalf("rows %v: tally hits=%d misses=%d, cache +%d/+%d, want %d/%d",
				tc.rows, th, tm, h1-h0, m1-m0, tc.wantHit, tc.wantMis)
		}
		if got := rs.Snapshot().Gets - gets0; got != tc.wantMis {
			t.Fatalf("rows %v: %d remote reads, want one per miss (%d)", tc.rows, got, tc.wantMis)
		}
	}
}

// TestColumnCacheWholeColumnAndGranulesDoNotCollide: the whole-column
// entry and the granule entries of one column are distinct keys, and
// neither answers for the other.
func TestColumnCacheWholeColumnAndGranulesDoNotCollide(t *testing.T) {
	cc, rd, _ := colCacheFixture(t)
	whole, err := cc.ReadColumn(context.Background(), rd, "id")
	if err != nil {
		t.Fatal(err)
	}
	if whole.Len() != 64 {
		t.Fatalf("whole column has %d rows", whole.Len())
	}
	if h, m, _ := cc.Stats(); h != 0 || m != 1 {
		t.Fatalf("after whole-column read: hits=%d misses=%d, want 0/1", h, m)
	}
	// Granule 0 is not in the cache just because the whole column is.
	piece, err := cc.ReadRows(context.Background(), rd, "id", []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if piece.Len() != 1 || piece.Ints[0] != 2 {
		t.Fatalf("granule read returned %v", piece.Ints)
	}
	if h, m, _ := cc.Stats(); h != 0 || m != 2 {
		t.Fatalf("after granule read: hits=%d misses=%d, want 0/2", h, m)
	}
	// And the whole column is still the whole column.
	again, err := cc.ReadColumn(context.Background(), rd, "id")
	if err != nil {
		t.Fatal(err)
	}
	if again != whole {
		t.Fatal("whole-column entry was replaced by a granule entry")
	}
	// Same granule number, different column: a different key.
	if _, err := cc.ReadRows(context.Background(), rd, "v", []int{2}, 1); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := cc.Stats(); h != 1 || m != 3 {
		t.Fatalf("after other-column read: hits=%d misses=%d, want 1/3", h, m)
	}
}

// TestColumnCacheWarmReadAllocs: a read served entirely from the cache
// allocates its output (header + values) and nothing per granule.
func TestColumnCacheWarmReadAllocs(t *testing.T) {
	cc, rd, _ := colCacheFixture(t)
	for _, tc := range []struct {
		name string
		col  string
		rows []int
	}{
		{"1 row / 1 granule", "id", []int{3}},
		{"3 rows / 1 granule", "id", []int{3, 5, 4}},
		{"10 rows / 7 granules", "id", []int{0, 9, 17, 25, 33, 41, 49, 50, 51, 1}},
		{"10 vectors / 7 granules", "v", []int{0, 9, 17, 25, 33, 41, 49, 50, 51, 1}},
	} {
		ctx := obs.WithTrace(context.Background(), obs.NewTrace("q"))
		read := func() {
			if _, err := cc.ReadRows(ctx, rd, tc.col, tc.rows, len(tc.rows)); err != nil {
				t.Fatal(err)
			}
		}
		read() // fill
		if allocs := testing.AllocsPerRun(100, read); allocs > 3 {
			t.Errorf("%s: warm read allocated %.0f times, want <= 3", tc.name, allocs)
		}
	}
}

// TestLRUStructKey: the LRU is one implementation over any comparable
// key; a struct key keeps recency, replacement and byte accounting.
func TestLRUStructKey(t *testing.T) {
	type k struct {
		a string
		n int32
	}
	c := NewLRU[k](20)
	c.Put(k{"x", 0}, "x0", 10)
	c.Put(k{"x", 1}, "x1", 10)
	if _, ok := c.Get(k{"x", 0}); !ok { // x0 is now the most recent
		t.Fatal("x0 missing")
	}
	var evicted []k
	c.SetOnEvict(func(key k, _ any) { evicted = append(evicted, key) })
	c.Put(k{"y", 0}, "y0", 10)
	if len(evicted) != 1 || evicted[0] != (k{"x", 1}) {
		t.Fatalf("evicted %v, want the least recent {x 1}", evicted)
	}
	c.Put(k{"x", 0}, "x0'", 5) // replace shrinks
	if c.SizeBytes() != 15 || c.Len() != 2 {
		t.Fatalf("size=%d len=%d, want 15/2", c.SizeBytes(), c.Len())
	}
	if v, _ := c.Get(k{"x", 0}); v != "x0'" {
		t.Fatalf("replaced value = %v", v)
	}
}
