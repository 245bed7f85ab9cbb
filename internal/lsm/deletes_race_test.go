package lsm

import (
	"strings"
	"sync/atomic"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/storage"
)

// gateStore holds the first Get of one key after reading it, until
// release closes: a slow store answering with what it read before.
type gateStore struct {
	storage.BlobStore
	key     string
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *gateStore) Get(key string) ([]byte, error) {
	b, err := s.BlobStore.Get(key)
	if key == s.key && s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return b, err
}

// A query's delete-bitmap miss reads the store without the table lock.
// A DELETE that installs and persists a bitmap while that read is in
// flight must survive the read's answer ("no bitmap"): the deleted row
// stays deleted in memory, and a later DELETE of the segment builds on
// it, so both stay deleted after a reopen.
func TestDeleteBitmapMissKeepsConcurrentDelete(t *testing.T) {
	ds := dataset.Small(lN, lDim, 3)
	opts := testOptions("gate")
	gate := &gateStore{BlobStore: storage.NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	tab, err := Create(gate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(fillBatch(t, opts, ds, 0, 200)); err != nil {
		t.Fatal(err)
	}
	// A fresh handle has looked up no bitmap yet.
	if tab, err = Open(gate, opts.Name); err != nil {
		t.Fatal(err)
	}
	if got := tab.SegmentCount(); got != 1 {
		t.Fatalf("segments = %d, want 1", got)
	}
	seg := tab.Segments()[0].Name
	gate.key = storage.DeleteBitmapKey(opts.Name, seg)
	gate.armed.Store(true)
	read := make(chan error, 1)
	go func() {
		_, err := tab.DeleteBitmap(seg)
		read <- err
	}()
	<-gate.entered
	if n, err := tab.DeleteByKey("id", []int64{7}); err != nil || n != 1 {
		t.Fatalf("DELETE of id 7 marked %d rows (%v), want 1", n, err)
	}
	close(gate.release)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	alive := func(tab *Table, ids ...string) {
		t.Helper()
		for _, row := range tableContents(t, tab) {
			for _, id := range ids {
				if strings.HasPrefix(row, id+"|") {
					t.Fatalf("deleted row alive: %s", row)
				}
			}
		}
	}
	alive(tab, "7")
	if n, err := tab.DeleteByKey("id", []int64{8}); err != nil || n != 1 {
		t.Fatalf("DELETE of id 8 marked %d rows (%v), want 1", n, err)
	}
	reopened, err := Open(gate, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	alive(reopened, "7", "8")
	if got := reopened.Rows(); got != 198 {
		t.Fatalf("live rows after reopen = %d, want 198", got)
	}
}
