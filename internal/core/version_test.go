package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"blendhouse/internal/storage"
)

// countStore counts the catalog reads a table makes: Lists of a
// segments/ prefix and Gets of delete bitmaps.
type countStore struct {
	storage.BlobStore
	mu              sync.Mutex
	segLists, bmaps int
}

func (s *countStore) List(prefix string) ([]string, error) {
	if strings.Contains(prefix, "/segments/") {
		s.mu.Lock()
		s.segLists++
		s.mu.Unlock()
	}
	return s.BlobStore.List(prefix)
}

func (s *countStore) Get(key string) ([]byte, error) {
	if strings.HasSuffix(key, "/delete.bmp") {
		s.mu.Lock()
		s.bmaps++
		s.mu.Unlock()
	}
	return s.BlobStore.Get(key)
}

func (s *countStore) counts() (segLists, bmaps int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segLists, bmaps = s.segLists, s.bmaps
	s.segLists, s.bmaps = 0, 0
	return segLists, bmaps
}

// A segment's delete bitmap arrives with the segment: opening a
// 16-segment table lists its segments once and reads no bitmap it does
// not have, queries read none, and a bitmap a DELETE wrote is read at
// the next open.
func TestBitmapsArriveWithSegment(t *testing.T) {
	store := &countStore{BlobStore: storage.NewMemStore()}
	cfg := Config{Store: store, SegmentRows: 32}
	ds := seedImages(t, newEngine(t, cfg)) // 500 rows / 32 = 16 segments
	store.counts()
	e := newEngine(t, cfg)
	if got := e.Table("images").SegmentCount(); got != 16 {
		t.Fatalf("segments = %d, want 16", got)
	}
	if lists, bmaps := store.counts(); lists != 1 || bmaps != 0 {
		t.Fatalf("open listed segments %d times and read %d bitmaps, want 1 and 0", lists, bmaps)
	}
	for qi := 0; qi < 100; qi++ {
		where := ""
		if qi%2 == 1 {
			where = "WHERE label = 'city' "
		}
		mustExec(t, e, fmt.Sprintf(`SELECT id FROM images %sORDER BY L2Distance(embedding, %s) LIMIT 5`,
			where, vecLit(ds.Queries.Row(qi%ds.Queries.Rows()))))
	}
	if _, bmaps := store.counts(); bmaps != 0 {
		t.Fatalf("100 queries read %d delete bitmaps, want 0", bmaps)
	}
	mustExec(t, e, `DELETE FROM images WHERE id = 5`)
	store.counts()
	e = newEngine(t, cfg)
	if lists, bmaps := store.counts(); lists != 1 || bmaps != 1 {
		t.Fatalf("open listed segments %d times and read %d bitmaps, want 1 and 1", lists, bmaps)
	}
	if res := mustExec(t, e, `SELECT id FROM images WHERE id = 5`); len(res.Rows) != 0 {
		t.Fatalf("deleted row 5 visible after reopen: %v", res.Rows)
	}
	res := mustExec(t, e, fmt.Sprintf(`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 1`, vecLit(ds.Vectors.Row(5))))
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) == 5 {
		t.Fatalf("nearest to deleted row 5: %v", res.Rows)
	}
}

// A held Version keeps what it names readable and its index handles
// loaded through a DELETE and a compaction; its release deletes the
// merged inputs' blobs and drops their handles, so the executor holds
// exactly the live segments' handles with no sweep.
func TestVersionRetiresIndexHandles(t *testing.T) {
	store := storage.NewMemStore()
	e := newEngine(t, Config{Store: store, SegmentRows: 100})
	ds := seedImages(t, e) // 5 segments
	ex := e.Executor("images")
	query := func() {
		t.Helper()
		res := mustExec(t, e, fmt.Sprintf(`SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 10`, vecLit(ds.Queries.Row(0))))
		if len(res.Rows) != 10 {
			t.Fatalf("query returned %d rows", len(res.Rows))
		}
	}
	query()
	inputs := ex.LoadedIndexSegments()
	if len(inputs) != 5 {
		t.Fatalf("executor holds %v, want 5 handles", inputs)
	}

	v, _ := e.Table("images").Acquire()
	mustExec(t, e, `DELETE FROM images WHERE id = 1`)
	mustExec(t, e, `OPTIMIZE TABLE images`)
	query()
	live := liveSegmentNames(e, "images")
	if len(live) != 1 {
		t.Fatalf("OPTIMIZE left %v", live)
	}
	if held := ex.LoadedIndexSegments(); !slices.Equal(held, append(slices.Clone(inputs), live...)) {
		t.Fatalf("executor holds %v while a Version names %v; live %v", held, inputs, live)
	}
	rows := 0
	for _, s := range v.Segments {
		ids, err := s.Reader.ReadColumn(context.Background(), "id")
		if err != nil {
			t.Fatalf("held Version's segment %s: %v", s.Meta.Name, err)
		}
		rows += ids.Len()
		if s.Deletes != nil {
			rows -= s.Deletes.Count()
		}
	}
	if rows != eN {
		t.Fatalf("held Version reads %d live rows, want %d", rows, eN)
	}

	v.Release()
	if held := ex.LoadedIndexSegments(); !slices.Equal(held, live) {
		t.Fatalf("after the release the executor holds %v, live segments are %v", held, live)
	}
	for _, seg := range inputs {
		if keys, _ := store.List("tables/images/segments/" + seg + "/"); len(keys) != 0 {
			t.Fatalf("retired %s keeps blobs %v", seg, keys)
		}
	}
}
