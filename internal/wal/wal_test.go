package wal

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"blendhouse/internal/storage"
)

const wDim = 4

func testSchema() *storage.Schema {
	return &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "id", Type: storage.Int64Type},
		{Name: "label", Type: storage.StringType},
		{Name: "score", Type: storage.Float64Type},
		{Name: "embedding", Type: storage.VectorType, Dim: wDim},
	}}
}

func testBatch(schema *storage.Schema, startID, n int) *storage.RowBatch {
	b := storage.NewRowBatch(schema)
	for i := 0; i < n; i++ {
		id := startID + i
		b.Col("id").Ints = append(b.Col("id").Ints, int64(id))
		b.Col("label").Strs = append(b.Col("label").Strs, fmt.Sprintf("row-%d", id))
		b.Col("score").Floats = append(b.Col("score").Floats, float64(id)/10)
		for d := 0; d < wDim; d++ {
			b.Col("embedding").Vecs = append(b.Col("embedding").Vecs, float32(id)+float32(d)/100)
		}
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	schema := testSchema()
	recs := []*Record{
		{LSN: 1, Type: RecInsert, Batch: testBatch(schema, 0, 3)},
		{LSN: 2, Type: RecDelete, DeleteCol: "id", DeleteKeys: []int64{1, 42}},
		{LSN: 3, Type: RecInsert, Batch: testBatch(schema, 3, 1)},
	}
	blob, err := EncodeBlob(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlob(schema, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d records, want 3", len(got))
	}
	if got[0].LSN != 1 || got[0].Type != RecInsert || got[0].Batch.Len() != 3 {
		t.Fatalf("record 0 mismatch: %+v", got[0])
	}
	if got[0].Batch.Col("label").Strs[2] != "row-2" {
		t.Fatalf("string column mismatch: %q", got[0].Batch.Col("label").Strs[2])
	}
	if got[0].Batch.Col("embedding").Vecs[wDim] != 1.0 {
		t.Fatalf("vector column mismatch: %v", got[0].Batch.Col("embedding").Vecs)
	}
	if got[1].DeleteCol != "id" || len(got[1].DeleteKeys) != 2 || got[1].DeleteKeys[1] != 42 {
		t.Fatalf("delete record mismatch: %+v", got[1])
	}
	if got[2].LSN != 3 || got[2].Batch.Len() != 1 {
		t.Fatalf("record 2 mismatch: %+v", got[2])
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	schema := testSchema()
	blob, err := EncodeBlob([]*Record{{LSN: 1, Type: RecInsert, Batch: testBatch(schema, 0, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if _, err := DecodeBlob(schema, corrupt); err == nil {
		t.Fatal("corrupted payload should fail checksum")
	}
	truncated := blob[:len(blob)-3]
	if _, err := DecodeBlob(schema, truncated); err == nil {
		t.Fatal("truncated blob should fail")
	}
	if _, err := DecodeBlob(schema, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	schema := testSchema()
	store := storage.NewMemStore()
	log, pending, err := Open(store, "t", schema, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh log has %d pending records", len(pending))
	}
	var applied []int64
	var applyMu sync.Mutex
	log.Start(func(r *Record) {
		applyMu.Lock()
		applied = append(applied, r.LSN)
		applyMu.Unlock()
	})

	const writers = 32
	var wg sync.WaitGroup
	lsns := make([]int64, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := log.Append(context.Background(), &Record{Type: RecInsert, Batch: testBatch(schema, i, 1)})
			if err != nil {
				t.Error(err)
				return
			}
			lsns[i] = lsn
		}(i)
	}
	wg.Wait()
	log.Close()

	seen := map[int64]bool{}
	for _, l := range lsns {
		if l < 1 || l > writers || seen[l] {
			t.Fatalf("bad or duplicate LSN %d in %v", l, lsns)
		}
		seen[l] = true
	}
	applyMu.Lock()
	defer applyMu.Unlock()
	if len(applied) != writers {
		t.Fatalf("apply hook ran %d times, want %d", len(applied), writers)
	}
	for i := 1; i < len(applied); i++ {
		if applied[i] <= applied[i-1] {
			t.Fatalf("apply order not ascending: %v", applied)
		}
	}
	blobs, err := store.List(logPrefix("t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) == 0 || len(blobs) > writers {
		t.Fatalf("expected between 1 and %d blobs, got %d", writers, len(blobs))
	}
}

func TestOpenReplaysAndFilters(t *testing.T) {
	schema := testSchema()
	store := storage.NewMemStore()
	log, _, err := Open(store, "t", schema, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	log.Start(nil)
	for i := 0; i < 5; i++ {
		if _, err := log.Append(context.Background(), &Record{Type: RecInsert, Batch: testBatch(schema, i, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Append(context.Background(), &Record{Type: RecDelete, DeleteCol: "id", DeleteKeys: []int64{0}}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, err := log.Append(context.Background(), &Record{Type: RecDelete, DeleteCol: "id", DeleteKeys: []int64{1}}); err != ErrClosed {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}

	// Reopen from scratch: all 6 records replay.
	log2, pending, err := Open(store, "t", schema, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 6 {
		t.Fatalf("replayed %d records, want 6", len(pending))
	}
	for i, r := range pending {
		if r.LSN != int64(i+1) {
			t.Fatalf("pending[%d].LSN = %d, want %d", i, r.LSN, i+1)
		}
	}
	if pending[5].Type != RecDelete {
		t.Fatalf("last record should be the delete, got %+v", pending[5])
	}

	// Reopen as-if flushed through LSN 4: only 5 and 6 replay, and new
	// appends continue past the existing tail.
	log3, pending, err := Open(store, "t", schema, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].LSN != 5 || pending[1].LSN != 6 {
		t.Fatalf("afterLSN=4 replay wrong: %+v", pending)
	}
	log3.Start(nil)
	lsn, err := log3.Append(context.Background(), &Record{Type: RecInsert, Batch: testBatch(schema, 100, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 7 {
		t.Fatalf("next LSN = %d, want 7", lsn)
	}
	log3.Close()
	_ = log2
}

func TestTruncateBelow(t *testing.T) {
	schema := testSchema()
	store := storage.NewMemStore()
	log, _, err := Open(store, "t", schema, 0, 1) // batch size 1: one blob per record
	if err != nil {
		t.Fatal(err)
	}
	log.Start(nil)
	for i := 0; i < 4; i++ {
		if _, err := log.Append(context.Background(), &Record{Type: RecInsert, Batch: testBatch(schema, i, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.TruncateBelow(2); err != nil {
		t.Fatal(err)
	}
	log.Close()
	_, pending, err := Open(store, "t", schema, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].LSN != 3 || pending[1].LSN != 4 {
		t.Fatalf("after truncate: %+v", pending)
	}
}

func TestMemtableSnapshotIsolation(t *testing.T) {
	schema := testSchema()
	m := NewMemtable(schema, 1)
	m.Append(testBatch(schema, 0, 10), 1)
	if m.Rows() != 10 {
		t.Fatalf("rows = %d", m.Rows())
	}
	if n := m.DeleteByKey("id", []int64{3, 7, 99}); n != 2 {
		t.Fatalf("DeleteByKey marked %d, want 2", n)
	}
	// Marking deletes must not advance the watermark — only NoteLSN
	// does (the table calls it on the active memtable alone, so a
	// delete can never let a sealed memtable's flush truncate WAL
	// records of rows still buffered in newer memtables).
	if m.MaxLSN() != 1 {
		t.Fatalf("DeleteByKey moved maxLSN to %d, want 1", m.MaxLSN())
	}
	m.NoteLSN(2)
	snap := m.Snapshot()
	if snap.Meta.Rows != 10 || snap.MaxLSN != 2 {
		t.Fatalf("snapshot rows=%d maxLSN=%d", snap.Meta.Rows, snap.MaxLSN)
	}
	if snap.Alive(3) || snap.Alive(7) || !snap.Alive(0) {
		t.Fatal("snapshot delete set wrong")
	}
	if snap.Meta.Name != "~mem000001" {
		t.Fatalf("synthetic name %q", snap.Meta.Name)
	}

	// Mutations after the snapshot must not leak into it.
	m.Append(testBatch(schema, 10, 5), 3)
	m.DeleteByKey("id", []int64{0})
	if snap.Meta.Rows != 10 || len(snap.Col("id").Ints) != 10 {
		t.Fatal("snapshot grew after append")
	}
	if !snap.Alive(0) {
		t.Fatal("later delete leaked into snapshot")
	}
	if got := snap.Col("embedding").Vecs; len(got) != 10*wDim {
		t.Fatalf("vector snapshot len %d", len(got))
	}

	live := snap.LiveBatch()
	if live.Len() != 8 {
		t.Fatalf("live batch has %d rows, want 8", live.Len())
	}
	for _, id := range live.Col("id").Ints {
		if id == 3 || id == 7 {
			t.Fatalf("deleted id %d present in live batch", id)
		}
	}
	if m.Bytes() <= 0 {
		t.Fatal("bytes accounting missing")
	}
}

func TestMemtableConcurrentSnapshot(t *testing.T) {
	schema := testSchema()
	m := NewMemtable(schema, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Append(testBatch(schema, i*3, 3), int64(i+1))
			m.DeleteByKey("id", []int64{int64(i * 3)})
		}
	}()
	for i := 0; i < 200; i++ {
		snap := m.Snapshot()
		n := snap.Meta.Rows
		if len(snap.Col("id").Ints) != n || len(snap.Col("embedding").Vecs) != n*wDim {
			t.Fatalf("torn snapshot: rows=%d ids=%d vecs=%d", n, len(snap.Col("id").Ints), len(snap.Col("embedding").Vecs))
		}
		for j := 0; j < n; j++ {
			_ = snap.Alive(j)
		}
	}
	close(stop)
	wg.Wait()
}
