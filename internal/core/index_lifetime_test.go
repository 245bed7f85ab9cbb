package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/blobtier"
	"blendhouse/internal/exec"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// liveSegmentNames lists the table's live segments, sorted.
func liveSegmentNames(e *Engine, table string) []string {
	var names []string
	for _, m := range e.Table(table).Segments() {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// An index handle lives as long as its segment: INSERT and DELETE must
// not make a reader reopen anything it already holds, deleted rows must
// still never come back (bitmaps are read per query, not baked into a
// handle), and OPTIMIZE must drop exactly the handles of the segments
// it retired.
func TestIndexHandlesOutliveWrites(t *testing.T) {
	e := newEngine(t, Config{SegmentRows: 100})
	ds := seedImages(t, e) // ids 0..eN-1 in 5 segments
	ex := e.Executor("images")
	ctx := context.Background()

	// The writer alternates a 3-row INSERT (one new segment each) with
	// a DELETE of the next-lowest id; deletedBelow is published after
	// the DELETE is acknowledged.
	const writerOps = 200
	var deletedBelow atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		nextID := int64(eN)
		for op := 0; op < writerOps; op++ {
			var src string
			if op%2 == 0 {
				var sb strings.Builder
				sb.WriteString("INSERT INTO images VALUES ")
				for r := 0; r < 3; r++ {
					if r > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "(%d, 'city', %d, 0.5, %s)", nextID, 2000+nextID, vecLit(ds.Vectors.Row(int(nextID)%eN)))
					nextID++
				}
				src = sb.String()
			} else {
				src = fmt.Sprintf("DELETE FROM images WHERE id = %d", deletedBelow.Load())
			}
			if _, err := e.Exec(ctx, src); err != nil {
				t.Errorf("writer op %d: %v", op, err)
				return
			}
			if op%2 == 1 {
				deletedBelow.Add(1)
			}
		}
	}()

	// One reader, so a segment's first open is one miss and not a race
	// between two queries missing it together.
	var misses int64
	query := func(qi int) {
		t.Helper()
		floor := deletedBelow.Load()
		tr := obs.NewTrace("q")
		res, err := e.Query(ctx, fmt.Sprintf(
			`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 10 SETTINGS ef_search=64`,
			vecLit(ds.Vectors.Row(qi%20))), QueryOptions{Trace: tr})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		for _, row := range res.Rows {
			if id := row[0].(int64); id < floor {
				t.Fatalf("query %d returned id %d, deleted before it started (ids < %d were)", qi, id, floor)
			}
		}
		_, m, _ := tr.IdxTally().Values()
		misses += m
	}
	done := make(chan struct{})
	go func() { writer.Wait(); close(done) }()
	for qi, writing := 0, true; writing; qi++ {
		select {
		case <-done:
			writing = false
		default:
		}
		query(qi)
	}
	if t.Failed() {
		return
	}

	// Every miss opened a segment for the first time; nothing the
	// reader held was ever reopened.
	held := ex.LoadedIndexSegments()
	if misses != int64(len(held)) {
		t.Fatalf("%d index opens for %d distinct segments: live handles were reloaded", misses, len(held))
	}
	if len(held) < writerOps/2 {
		t.Fatalf("reader opened only %d segments; the writer cut %d", len(held), writerOps/2)
	}

	mustExec(t, e, "OPTIMIZE TABLE images")
	live := liveSegmentNames(e, "images")
	if len(live) >= len(held) {
		t.Fatalf("OPTIMIZE merged nothing: %d handles before, %d segments after", len(held), len(live))
	}
	for _, name := range ex.LoadedIndexSegments() {
		if !slices.Contains(live, name) {
			t.Fatalf("handle of retired segment %s survived OPTIMIZE", name)
		}
	}
	query(0)
	if held := ex.LoadedIndexSegments(); !slices.Equal(held, live) {
		t.Fatalf("after OPTIMIZE and a query the executor holds %v, live segments are %v", held, live)
	}
}

// A node that drops its index handles and reopens them through the
// blob tier pays for the graph slabs only: the tier lends the cached
// blob and the index reads its vectors out of it, so a reopen allocates
// a fraction of the blob — and answers exactly what an engine over a
// plain store answers.
func TestReopenThroughTierBorrowsBlob(t *testing.T) {
	const rows, dim = 600, 128
	ds := dataset.Small(rows, dim, 23)
	build := func(cfg Config) *Engine {
		cfg.Store = storage.NewMemStore()
		cfg.SegmentRows = 300
		e := newEngine(t, cfg)
		mustExec(t, e, fmt.Sprintf(`CREATE TABLE docs (id UInt64, v Array(Float32),
			INDEX ann v TYPE HNSW('DIM=%d','M=8','EF_CONSTRUCTION=40','SEED=5'))`, dim))
		var sb strings.Builder
		sb.WriteString("INSERT INTO docs VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %s)", i, vecLit(ds.Vectors.Row(i)))
		}
		mustExec(t, e, sb.String())
		return e
	}
	plain := build(Config{})
	defer plain.Close()
	tiered := build(Config{Tier: &blobtier.Config{MemBytes: 64 << 20}})
	defer tiered.Close()

	ctx := context.Background()
	src := fmt.Sprintf(`SELECT id, d FROM docs ORDER BY L2Distance(v, %s) AS d LIMIT 10 SETTINGS ef_search=64`,
		vecLit(ds.Queries.Row(0)))
	want, err := plain.Query(ctx, src, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() *exec.Result {
		t.Helper()
		tiered.Executor("docs").InvalidateLocalIndexes()
		res, err := tiered.Query(ctx, src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < 2; i++ { // the first pass fills the tier, the second hits it
		if got := reopen(); !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("reopen %d through the tier answers %v, plain store %v", i, got.Rows, want.Rows)
		}
	}

	var blobBytes int64
	tab := tiered.Table("docs")
	for _, m := range tab.Segments() {
		n, err := tab.Store().Size(tab.IndexKeyOf(m.Name))
		if err != nil {
			t.Fatal(err)
		}
		blobBytes += n
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		reopen()
	}
	runtime.ReadMemStats(&after)
	perReopen := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	if perReopen >= blobBytes/2 {
		t.Fatalf("reopening %d index bytes through the tier allocates %d bytes, want < half", blobBytes, perReopen)
	}
}
