package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/blobtier"
	"blendhouse/internal/storage"
)

// roundStore records the interval of every operation that reaches the
// remote store below it.
type roundStore struct {
	storage.BlobStore
	mu  sync.Mutex
	ops []storeOp
}

type storeOp struct {
	what       string
	start, end time.Time
}

func (s *roundStore) note(what string, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.ops = append(s.ops, storeOp{what, start, end})
	s.mu.Unlock()
}

func (s *roundStore) Get(key string) ([]byte, error) {
	defer s.note("GET "+key, time.Now())
	return s.BlobStore.Get(key)
}

func (s *roundStore) GetRange(key string, off, n int64) ([]byte, error) {
	defer s.note("GET "+key, time.Now())
	return s.BlobStore.GetRange(key, off, n)
}

func (s *roundStore) Size(key string) (int64, error) {
	defer s.note("SIZE "+key, time.Now())
	return s.BlobStore.Size(key)
}

func (s *roundStore) List(prefix string) ([]string, error) {
	defer s.note("LIST "+prefix, time.Now())
	return s.BlobStore.List(prefix)
}

func (s *roundStore) Put(key string, data []byte) error {
	defer s.note("PUT "+key, time.Now())
	return s.BlobStore.Put(key, data)
}

func (s *roundStore) Delete(key string) error {
	defer s.note("DELETE "+key, time.Now())
	return s.BlobStore.Delete(key)
}

// waves is the number of sequential round trips the operations took:
// the longest chain of operations each of which started after the one
// before it ended.
func waves(ops []storeOp) int {
	sort.Slice(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
	depth := make([]int, len(ops))
	most := 0
	for i, op := range ops {
		depth[i] = 1
		for j := range i {
			if !ops[j].end.After(op.start) {
				depth[i] = max(depth[i], depth[j]+1)
			}
		}
		most = max(most, depth[i])
	}
	return most
}

// TestColdOpenRoundTrips: a compute node attaching to the cold
// workload's table — 16 flushed segments, WAL on, a blob tier over
// retries over a remote store — issues 20 remote operations (wal/
// listed once) in at most 4 sequential round trips.
func TestColdOpenRoundTrips(t *testing.T) {
	mem := storage.NewMemStore()
	e := newEngine(t, Config{Store: mem, AutoIndex: true, WAL: noFlushWAL()})
	mustExec(t, e, "CREATE TABLE cold (id UInt64, ts Int64, payload String, v Array(Float32), INDEX ann v TYPE HNSW('DIM=4')) ORDER BY id")
	for s := 0; s < 16; s++ {
		var rows []string
		for i := 0; i < 10; i++ {
			id := 10*s + i
			rows = append(rows, fmt.Sprintf("(%d, %d, 'p%d', [%d, 1, 0, 0.5])", id, 1000+id, id, id))
		}
		mustExec(t, e, "INSERT INTO cold VALUES "+strings.Join(rows, ", "))
		if err := e.Table("cold").FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	store := &roundStore{BlobStore: storage.NewRemoteStore(mem, storage.RemoteConfig{OpLatency: 2 * time.Millisecond})}
	re, err := New(Config{
		Store: store, AutoIndex: true, WAL: noFlushWAL(),
		Retry: &storage.RetryConfig{MaxAttempts: 4},
		Tier:  &blobtier.Config{MemBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Table("cold").SegmentCount(); n != 16 {
		t.Fatalf("%d segments, want 16", n)
	}
	store.mu.Lock()
	ops := append([]storeOp(nil), store.ops...)
	store.mu.Unlock()
	var names []string
	walLists := 0
	for _, op := range ops {
		names = append(names, op.what)
		if op.what == "LIST tables/cold/wal/" {
			walLists++
		}
	}
	if len(ops) != 20 || walLists != 1 {
		t.Fatalf("%d remote operations, wal/ listed %d times; want 20 and once:\n%s", len(ops), walLists, strings.Join(names, "\n"))
	}
	if w := waves(ops); w > 4 {
		t.Fatalf("the open took %d sequential round trips, want at most 4", w)
	}
}
