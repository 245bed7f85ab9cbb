package blobtier

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blendhouse/internal/storage"
)

// The memory tier's admission gate: a blob that needs evictions to
// enter is admitted only if it has been read more often than every
// blob it would evict.

// blob is a 100-byte value that names its key, so a test can tell
// which blob it was lent.
func blob(name string) []byte {
	return append([]byte(name), bytes.Repeat([]byte{'.'}, 100-len(name))...)
}

// gateTier is a tier of slots 100-byte blobs in memory over a counting
// backing store that already holds every named blob.
func gateTier(t *testing.T, slots int, diskFS storage.BlobStore, names ...string) (*TieredStore, *storage.RemoteStore) {
	t.Helper()
	cfg := Config{MemBytes: int64(100 * slots)}
	if diskFS != nil {
		cfg.DiskBytes, cfg.DiskStore = 1<<20, diskFS
	}
	ts, remote := newCountingTiered(t, cfg)
	for _, n := range names {
		if err := remote.Put(segKey(n), blob(n)); err != nil {
			t.Fatal(err)
		}
	}
	return ts, remote
}

func read(t *testing.T, ts *TieredStore, name string, times int) {
	t.Helper()
	for i := 0; i < times; i++ {
		got, err := ts.Get(segKey(name))
		if err != nil || !bytes.Equal(got, blob(name)) {
			t.Fatalf("Get(%s) = %.8q, %v", name, got, err)
		}
	}
}

func TestTieredGateScanDoesNotDisplaceHotSet(t *testing.T) {
	hot := []string{"h0", "h1", "h2", "h3"}
	var cold []string
	for i := 0; i < 20; i++ {
		cold = append(cold, fmt.Sprintf("c%d", i))
	}
	ts, remote := gateTier(t, len(hot), nil, append(hot, cold...)...)
	for _, h := range hot {
		read(t, ts, h, 3)
	}
	for _, c := range cold {
		read(t, ts, c, 1)
	}
	g0 := remote.Snapshot().Gets
	for _, h := range hot {
		read(t, ts, h, 1)
	}
	if g := remote.Snapshot().Gets - g0; g != 0 {
		t.Fatalf("a one-off scan of %d cold blobs displaced the hot set: %d refetches", len(cold), g)
	}
	if st := ts.TierStats(); st.Declined != int64(len(cold)) {
		t.Fatalf("Declined = %d, want %d", st.Declined, len(cold))
	}
}

// Preload's contract: warming an empty tier keeps everything that fits.
func TestTieredGateFillIntoFreeSpaceIsAdmitted(t *testing.T) {
	ts, remote := gateTier(t, 4, nil, "hot", "a", "b", "c")
	read(t, ts, "hot", 10)
	for _, n := range []string{"a", "b", "c"} {
		read(t, ts, n, 1)
	}
	g0 := remote.Snapshot().Gets
	for _, n := range []string{"hot", "a", "b", "c"} {
		read(t, ts, n, 1)
	}
	if g := remote.Snapshot().Gets - g0; g != 0 {
		t.Fatalf("%d refetches of blobs filled into free space", g)
	}
	if st := ts.TierStats(); st.Declined != 0 || st.MemEntries != 4 {
		t.Fatalf("tier = %+v, want 4 entries and nothing declined", st)
	}
}

// Counts saturate at 15 and a tie is declined, so a key that turns hot
// after two others saturated gets in only once halving has cut their
// lead: the first halving comes after 10 × 16 reads.
func TestTieredGateAdmitsKeyTurnedHotAfterHalving(t *testing.T) {
	ts, _ := gateTier(t, 2, nil, "a", "b", "n")
	read(t, ts, "a", 15)
	read(t, ts, "b", 15)
	reads := 30
	read(t, ts, "n", 20)
	reads += 20
	if ts.mem.Contains(segKey("n")) {
		t.Fatal("a key tied with the saturated entries was admitted before halving")
	}
	for !ts.mem.Contains(segKey("n")) {
		if reads > sampleFactor*minSampleEntries+1 {
			t.Fatalf("key not admitted after %d reads, past the first halving", reads)
		}
		read(t, ts, "n", 1)
		reads++
	}
	if st := ts.TierStats(); st.MemEntries != 2 {
		t.Fatalf("tier = %+v", st)
	}
}

func TestTieredGateDeclinedBlobIsLentAndSpilled(t *testing.T) {
	diskFS := storage.NewMemStore()
	ts, remote := gateTier(t, 2, diskFS, "a", "b", "c")
	read(t, ts, "a", 3)
	read(t, ts, "b", 3)
	read(t, ts, "c", 1) // read checks the bytes lent
	st := ts.TierStats()
	if st.Declined != 1 || st.MemEntries != 2 || st.DiskEntries != 1 {
		t.Fatalf("tier = %+v, want c declined to disk beside a and b in memory", st)
	}
	if got, err := diskFS.Get(segKey("c")); err != nil || !bytes.Equal(got, blob("c")) {
		t.Fatalf("declined blob on disk = %.8q, %v", got, err)
	}
	g0 := remote.Snapshot().Gets
	read(t, ts, "c", 1)
	if g := remote.Snapshot().Gets - g0; g != 0 {
		t.Fatalf("declined blob cost %d backing reads, want a disk hit", g)
	}
}

// Size is a probe: asking for a blob's size does not make it look read.
func TestTieredGateSizeDoesNotCount(t *testing.T) {
	ts, _ := gateTier(t, 2, nil, "a", "b", "c")
	read(t, ts, "a", 1)
	read(t, ts, "b", 1)
	for i := 0; i < 5; i++ {
		if n, err := ts.Size(segKey("c")); err != nil || n != 100 {
			t.Fatalf("Size = %d, %v", n, err)
		}
	}
	read(t, ts, "c", 1)
	if ts.mem.Contains(segKey("c")) || ts.TierStats().Declined != 1 {
		t.Fatalf("a blob read once after 5 Size probes was admitted over blobs read once: %+v", ts.TierStats())
	}
}

// recordingStore logs the key of every backing Get.
type recordingStore struct {
	storage.BlobStore
	mu   sync.Mutex
	gets []string
}

func (r *recordingStore) Get(key string) ([]byte, error) {
	r.mu.Lock()
	r.gets = append(r.gets, key)
	r.mu.Unlock()
	return r.BlobStore.Get(key)
}

// The gate has no randomness and no clock: one read sequence gives one
// sequence of fills.
func TestTieredGateIsDeterministic(t *testing.T) {
	run := func() ([]string, Stats) {
		rec := &recordingStore{BlobStore: storage.NewMemStore()}
		for i := 0; i < 24; i++ {
			if err := rec.BlobStore.Put(segKey(fmt.Sprint(i)), blob(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		ts, err := NewTiered(rec, Config{MemBytes: 800})
		if err != nil {
			t.Fatal(err)
		}
		z := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 1, 23)
		for i := 0; i < 2000; i++ {
			read(t, ts, fmt.Sprint(z.Uint64()), 1)
		}
		return rec.gets, ts.TierStats()
	}
	fills1, st1 := run()
	fills2, st2 := run()
	if st1.Declined == 0 {
		t.Fatal("the sequence never reached the gate")
	}
	if fmt.Sprint(fills1) != fmt.Sprint(fills2) || st1 != st2 {
		t.Fatalf("same reads, different fills: %d vs %d fills, %+v vs %+v", len(fills1), len(fills2), st1, st2)
	}
}

// blockingStore holds its first Get, after it has read the bytes,
// until release is closed: the window in which the tier is filling old
// bytes.
type blockingStore struct {
	storage.BlobStore
	once             sync.Once
	entered, release chan struct{}
}

func (b *blockingStore) Get(key string) ([]byte, error) {
	d, err := b.BlobStore.Get(key)
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return d, err
}

// A fill that read the old bytes before an overwrite or delete of its
// key must not cache them after it: reads that begin once the
// overwrite or delete has returned see the new state.
func TestTieredFillRacingInvalidationCachesNothing(t *testing.T) {
	for _, op := range []string{"Delete", "Put"} {
		key := segKey("v")
		bs := &blockingStore{BlobStore: storage.NewMemStore(),
			entered: make(chan struct{}), release: make(chan struct{})}
		if err := bs.BlobStore.Put(key, []byte("old")); err != nil {
			t.Fatal(err)
		}
		ts, err := NewTiered(bs, Config{MemBytes: 1 << 20, DiskBytes: 1 << 20, DiskStore: storage.NewMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error)
		go func() {
			_, err := ts.Get(key)
			done <- err
		}()
		<-bs.entered
		if op == "Delete" {
			err = ts.Delete(key)
		} else {
			err = ts.Put(key, []byte("new"))
		}
		if err != nil {
			t.Fatal(err)
		}
		close(bs.release)
		if err := <-done; err != nil {
			t.Fatalf("%s: racing Get: %v", op, err)
		}
		got, err := ts.Get(key)
		switch {
		case op == "Delete" && !storage.IsNotFound(err):
			t.Errorf("Get after Delete = %q, %v; want not found", got, err)
		case op == "Put" && (err != nil || string(got) != "new"):
			t.Errorf("Get after Put = %q, %v; want \"new\"", got, err)
		}
	}
}
