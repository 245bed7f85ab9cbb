package lsm

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
	"blendhouse/internal/wal"
)

// segmentedTable stores a flat (id, v) table of segs 10-row segments
// in a MemStore, a delete bitmap on every third segment, and returns
// the store and the segment names in manifest order.
func segmentedTable(t testing.TB, segs int) (*storage.MemStore, []string) {
	t.Helper()
	store := storage.NewMemStore()
	opts := idVecOptions("o", index.Flat, 4)
	opts.SegmentRows = 10
	tab, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, tab, idBatch(opts, 0, 10*segs))
	var gone []int64
	for s := 0; s < segs; s += 3 {
		gone = append(gone, int64(10*s+s%10))
	}
	if _, err := tab.DeleteByKey(context.Background(), "id", gone); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range tab.Segments() {
		names = append(names, m.Name)
	}
	if len(names) != segs {
		t.Fatalf("%d segments, want %d", len(names), segs)
	}
	return store, names
}

func isMetaKey(key string) bool { return strings.HasSuffix(key, "/meta.json") }

// gateStore holds every meta.json GET until want of them are waiting,
// and fails a GET that waited five seconds: a serial open never gets
// past its first.
type gateStore struct {
	storage.BlobStore
	want     int32
	waiting  atomic.Int32
	open     chan struct{}
	timedOut atomic.Bool
}

var errGateTimeout = errors.New("meta.json GET held 5 s: the reads are not concurrent")

func (s *gateStore) Get(key string) ([]byte, error) {
	if isMetaKey(key) {
		if s.waiting.Add(1) == s.want {
			close(s.open)
		}
		if s.timedOut.Load() {
			return nil, errGateTimeout
		}
		select {
		case <-s.open:
		case <-time.After(5 * time.Second):
			s.timedOut.Store(true)
			return nil, errGateTimeout
		}
	}
	return s.BlobStore.Get(key)
}

// TestOpenReadsMetasConcurrently: Open has all sixteen meta.json GETs
// of a 16-segment table in flight at once.
func TestOpenReadsMetasConcurrently(t *testing.T) {
	mem, names := segmentedTable(t, 16)
	gate := &gateStore{BlobStore: mem, want: 16, open: make(chan struct{})}
	tab, err := Open(gate, "o")
	if err != nil {
		t.Fatal(err)
	}
	if tab.SegmentCount() != len(names) {
		t.Fatalf("%d segments, want %d", tab.SegmentCount(), len(names))
	}
}

// failStore fails the meta.json GETs of chosen segments, the later one
// in manifest order first, and slows every other GET, while counting
// the operations in flight.
type failStore struct {
	storage.BlobStore
	fail     map[string]time.Duration // segment -> how long its GET takes to fail
	inFlight atomic.Int32
}

func (s *failStore) Get(key string) ([]byte, error) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if isMetaKey(key) {
		for seg, after := range s.fail {
			if strings.Contains(key, "/"+seg+"/") {
				time.Sleep(after)
				return nil, errors.New("injected failure of " + seg)
			}
		}
	}
	time.Sleep(5 * time.Millisecond)
	return s.BlobStore.Get(key)
}

// TestOpenReturnsFirstFailingSegment: with the metas of segments 3 and
// 9 failing — 9's first — Open returns segment 3's error, as the serial
// loop did, and leaves no read or goroutine behind.
func TestOpenReturnsFirstFailingSegment(t *testing.T) {
	mem, names := segmentedTable(t, 16)
	store := &failStore{BlobStore: mem, fail: map[string]time.Duration{
		names[3]: 30 * time.Millisecond,
		names[9]: 0,
	}}
	before := runtime.NumGoroutine()
	_, err := Open(store, "o")
	if n := store.inFlight.Load(); n != 0 {
		t.Fatalf("%d reads still in flight after Open returned", n)
	}
	want := "lsm: loading segment " + names[3] + ": injected failure of " + names[3]
	if err == nil || err.Error() != want {
		t.Fatalf("Open = %v, want %q", err, want)
	}
	testutil.CheckNoLeaks(t, before)
}

// openSerially is the loop Open ran before its reads fanned out: each
// segment's meta, then its delete bitmap, one read at a time.
func openSerially(t *testing.T, store storage.BlobStore, name string, segs []string) []*Segment {
	t.Helper()
	tab := newTable(store, Options{Name: name})
	var out []*Segment
	for _, seg := range segs {
		sm, err := storage.ReadMeta(store, name, seg)
		if err != nil {
			t.Fatal(err)
		}
		var del *bitset.Bitset
		if blob, err := store.Get(storage.DeleteBitmapKey(name, seg)); err == nil {
			del = new(bitset.Bitset)
			if err := del.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
		} else if !storage.IsNotFound(err) {
			t.Fatal(err)
		}
		out = append(out, tab.newSegment(sm, del))
	}
	return out
}

// TestOpenMatchesSerialOpen: a 64-segment table with delete bitmaps
// opens to the Version the serial loop built: the same segments, in
// the same order, with the same metas and bitmaps.
func TestOpenMatchesSerialOpen(t *testing.T) {
	store, names := segmentedTable(t, 64)
	tab, err := Open(store, "o")
	if err != nil {
		t.Fatal(err)
	}
	got, want := tab.current().Segments, openSerially(t, store, "o", names)
	if len(got) != len(want) {
		t.Fatalf("%d segments, want %d", len(got), len(want))
	}
	bitmaps := 0
	for i := range want {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.Meta, w.Meta) {
			t.Fatalf("segment %d: meta %s differs from the serial open's %s", i, g.Meta.Name, w.Meta.Name)
		}
		if (g.Deletes == nil) != (w.Deletes == nil) {
			t.Fatalf("segment %s: bitmap %v, serial open %v", g.Meta.Name, g.Deletes, w.Deletes)
		}
		if w.Deletes != nil {
			bitmaps++
			gb, _ := g.Deletes.MarshalBinary()
			wb, _ := w.Deletes.MarshalBinary()
			if !reflect.DeepEqual(gb, wb) {
				t.Fatalf("segment %s: bitmaps differ", g.Meta.Name)
			}
		}
	}
	if bitmaps != 22 {
		t.Fatalf("%d segments with a bitmap, want 22", bitmaps)
	}
}

// listStore counts List calls per prefix.
type listStore struct {
	storage.BlobStore
	mu    sync.Mutex
	lists map[string]int
}

func (s *listStore) List(prefix string) ([]string, error) {
	s.mu.Lock()
	s.lists[prefix]++
	s.mu.Unlock()
	return s.BlobStore.List(prefix)
}

// TestRecoveryListsWALOnce: opening a table and enabling its WAL lists
// wal/ once — EnableWAL positions its log from Open's listing — and the
// log goes on at the next LSN.
func TestRecoveryListsWALOnce(t *testing.T) {
	mem := storage.NewMemStore()
	opts := idVecOptions("w", index.Flat, 4)
	tab, err := Create(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(t.Context(), idBatch(opts, 0, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tab.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	lsn := tab.FlushedLSN()

	store := &listStore{BlobStore: mem, lists: map[string]int{}}
	re, err := Open(store, "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := re.EnableWAL(walTestConfig()); err != nil {
		t.Fatal(err)
	}
	if n := store.lists[wal.Prefix("w")]; n != 1 {
		t.Fatalf("wal/ listed %d times, want once", n)
	}
	if err := re.Insert(t.Context(), idBatch(opts, 20, 5)); err != nil {
		t.Fatal(err)
	}
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if got := re.FlushedLSN(); got != lsn+1 {
		t.Fatalf("first LSN after reopen flushed to %d, want %d", got, lsn+1)
	}
}

// BenchmarkOpenTable opens a 64-segment table over a 1 ms RemoteStore.
func BenchmarkOpenTable(b *testing.B) {
	mem, _ := segmentedTable(b, 64)
	store := storage.NewRemoteStore(mem, storage.RemoteConfig{OpLatency: time.Millisecond})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Open(store, "o"); err != nil {
			b.Fatal(err)
		}
	}
}
