package blobtier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/internal/storage"
)

// segKey builds a cacheable key in the segment namespace (the skip
// list never matches it).
func segKey(name string) string {
	return storage.SegmentsPrefix("t") + "seg000/" + name
}

// newCountingTiered builds a TieredStore over a zero-latency
// RemoteStore so tests can count exactly how many reads reached the
// backing.
func newCountingTiered(t *testing.T, cfg Config) (*TieredStore, *storage.RemoteStore) {
	t.Helper()
	remote := storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{})
	ts, err := NewTiered(remote, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ts, remote
}

func TestTieredPutAdmitsAndServesFromMemory(t *testing.T) {
	ts, remote := newCountingTiered(t, Config{MemBytes: 1 << 20})
	data := []byte("hello tiered world")
	if err := ts.Put(segKey("col.bin"), data); err != nil {
		t.Fatal(err)
	}
	g0 := remote.Snapshot().Gets
	for i := 0; i < 5; i++ {
		got, err := ts.Get(segKey("col.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("got %q, want %q", got, data)
		}
	}
	if g := remote.Snapshot().Gets; g != g0 {
		t.Fatalf("backing Gets = %d after warm reads, want %d (all mem hits)", g, g0)
	}
	st := ts.TierStats()
	if st.MemEntries != 1 || st.MemBytes != int64(len(data)) {
		t.Fatalf("stats = %+v, want 1 entry / %d bytes", st, len(data))
	}
}

func TestTieredReadThroughFill(t *testing.T) {
	ts, remote := newCountingTiered(t, Config{MemBytes: 1 << 20})
	// Written behind the tier's back: first read is a miss that fills.
	if err := remote.Put(segKey("cold.bin"), []byte("cold data")); err != nil {
		t.Fatal(err)
	}
	g0 := remote.Snapshot().Gets
	if _, err := ts.Get(segKey("cold.bin")); err != nil {
		t.Fatal(err)
	}
	if g := remote.Snapshot().Gets; g != g0+1 {
		t.Fatalf("backing Gets = %d after cold read, want %d", g, g0+1)
	}
	if _, err := ts.Get(segKey("cold.bin")); err != nil {
		t.Fatal(err)
	}
	if g := remote.Snapshot().Gets; g != g0+1 {
		t.Fatalf("backing Gets = %d after warm read, want %d (fill should stick)", g, g0+1)
	}
}

func TestTieredSkipListBypassesCache(t *testing.T) {
	ts, remote := newCountingTiered(t, Config{MemBytes: 1 << 20})
	for _, key := range []string{
		"tables/t/manifest.json",
		"tables/t/wal/0000000000000001-0000000000000009.log",
		"tables/t/segments/seg000/delete.bmp",
	} {
		if err := ts.Put(key, []byte("mutable")); err != nil {
			t.Fatal(err)
		}
		g0 := remote.Snapshot().Gets
		for i := 0; i < 3; i++ {
			if _, err := ts.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		if g := remote.Snapshot().Gets; g != g0+3 {
			t.Fatalf("key %q: backing Gets = %d, want %d (must never be cached)", key, g, g0+3)
		}
	}
	if st := ts.TierStats(); st.MemEntries != 0 {
		t.Fatalf("mutable keys cached: %+v", st)
	}
}

func TestTieredDiskSpillServesEvictions(t *testing.T) {
	diskFS := storage.NewMemStore()
	ts, remote := newCountingTiered(t, Config{
		MemBytes: 100, DiskBytes: 1 << 20, DiskStore: diskFS,
	})
	a, b := make([]byte, 80), make([]byte, 80)
	for i := range a {
		a[i], b[i] = 'a', 'b'
	}
	if err := ts.Put(segKey("a"), a); err != nil {
		t.Fatal(err)
	}
	// b exceeds the memory budget together with a: a spills to disk.
	if err := ts.Put(segKey("b"), b); err != nil {
		t.Fatal(err)
	}
	if _, err := diskFS.Get(segKey("a")); err != nil {
		t.Fatalf("evicted blob not spilled to disk: %v", err)
	}
	g0 := remote.Snapshot().Gets
	got, err := ts.Get(segKey("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("disk tier returned wrong bytes")
	}
	if g := remote.Snapshot().Gets; g != g0 {
		t.Fatalf("backing Gets = %d serving a disk-tier blob, want %d", g, g0)
	}
	if st := ts.TierStats(); st.DiskHits == 0 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
}

func TestTieredDiskEvictionDeletesSpilledBlob(t *testing.T) {
	diskFS := storage.NewMemStore()
	ts, _ := newCountingTiered(t, Config{
		MemBytes: 100, DiskBytes: 150, DiskStore: diskFS,
	})
	blob := func(c byte) []byte { return bytes.Repeat([]byte{c}, 80) }
	// k1 spills when k2 arrives; k2's spill (when k3 arrives) blows the
	// 150-byte disk budget and must evict k1's file.
	for i, c := range []byte{'1', '2', '3'} {
		if err := ts.Put(segKey(fmt.Sprintf("k%d", i+1)), blob(c)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := diskFS.Get(segKey("k1")); !storage.IsNotFound(err) {
		t.Fatalf("disk-evicted blob still on disk (err=%v)", err)
	}
	if _, err := diskFS.Get(segKey("k2")); err != nil {
		t.Fatalf("resident disk blob missing: %v", err)
	}
	if st := ts.TierStats(); st.DiskBytes > 150 {
		t.Fatalf("disk tier over budget: %+v", st)
	}
}

func TestTieredOverwriteAndDeleteInvalidate(t *testing.T) {
	diskFS := storage.NewMemStore()
	ts, _ := newCountingTiered(t, Config{
		MemBytes: 1 << 20, DiskBytes: 1 << 20, DiskStore: diskFS,
	})
	key := segKey("v")
	if err := ts.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := ts.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ts.Get(key); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("stale value after overwrite: %q", got)
	}
	if err := ts.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Get(key); !storage.IsNotFound(err) {
		t.Fatalf("deleted key still readable (err=%v)", err)
	}
	if st := ts.TierStats(); st.MemEntries != 0 || st.DiskEntries != 0 {
		t.Fatalf("tiers not invalidated after delete: %+v", st)
	}
}

// slowStore delays and counts Gets so concurrent misses provably
// coalesce into one backing fetch.
type slowStore struct {
	storage.BlobStore
	delay time.Duration
	gets  atomic.Int64
}

func (s *slowStore) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	time.Sleep(s.delay)
	return s.BlobStore.Get(key)
}

func TestTieredSingleflightDedup(t *testing.T) {
	slow := &slowStore{BlobStore: storage.NewMemStore(), delay: 100 * time.Millisecond}
	if err := slow.BlobStore.Put(segKey("big"), bytes.Repeat([]byte{7}, 1000)); err != nil {
		t.Fatal(err)
	}
	ts, err := NewTiered(slow, Config{MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			_, errs[i] = ts.Get(segKey("big"))
		}(i)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	// One flight serves everyone. A reader descheduled across the
	// flight's completion may legitimately re-lead once, so allow 2 —
	// anything more means the dedup is broken.
	if g := slow.gets.Load(); g > 2 {
		t.Fatalf("backing Gets = %d for %d concurrent misses, want coalescing to <=2", g, readers)
	}
}

// TestTieredSpillFailureDegradesToRefetch: a disk tier that cannot
// accept spills loses nothing — the blob simply costs a backing
// re-fetch next time (chaos satellite: spill failures are pass-through,
// never data loss).
func TestTieredSpillFailureDegradesToRefetch(t *testing.T) {
	badDisk := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{
		Seed:  1,
		Rules: []storage.FaultRule{{Op: storage.FaultOpPut, Permanent: true}},
	})
	ts, remote := newCountingTiered(t, Config{
		MemBytes: 100, DiskBytes: 1 << 20, DiskStore: badDisk,
	})
	a := bytes.Repeat([]byte{'a'}, 80)
	if err := ts.Put(segKey("a"), a); err != nil {
		t.Fatal(err)
	}
	// Evicts a; the spill fails and the blob is dropped from the cache.
	if err := ts.Put(segKey("b"), bytes.Repeat([]byte{'b'}, 80)); err != nil {
		t.Fatal(err)
	}
	g0 := remote.Snapshot().Gets
	got, err := ts.Get(segKey("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("refetched blob corrupted")
	}
	if g := remote.Snapshot().Gets; g != g0+1 {
		t.Fatalf("backing Gets = %d, want %d (refetch after failed spill)", g, g0+1)
	}
}

func TestTieredGetRangeSemantics(t *testing.T) {
	ts, _ := newCountingTiered(t, Config{MemBytes: 1 << 20})
	key := segKey("r")
	if err := ts.Put(key, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.GetRange(key, -1, 2); !errors.Is(err, storage.ErrInvalidRange) {
		t.Fatalf("negative offset: err = %v, want ErrInvalidRange", err)
	}
	if _, err := ts.GetRange(key, 0, -1); !errors.Is(err, storage.ErrInvalidRange) {
		t.Fatalf("negative length: err = %v, want ErrInvalidRange", err)
	}
	got, err := ts.GetRange(key, 4, 3)
	if err != nil || !bytes.Equal(got, []byte("456")) {
		t.Fatalf("mid range = %q, %v", got, err)
	}
	got, err = ts.GetRange(key, 8, 100)
	if err != nil || !bytes.Equal(got, []byte("89")) {
		t.Fatalf("clamped range = %q, %v", got, err)
	}
	got, err = ts.GetRange(key, 100, 5)
	if err != nil || len(got) != 0 {
		t.Fatalf("past-end range = %q, %v, want empty", got, err)
	}
	// A cold range read fills the whole blob: the next full Get is a hit.
	ts2, remote2 := newCountingTiered(t, Config{MemBytes: 1 << 20})
	if err := remote2.Put(key, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := ts2.GetRange(key, 0, 4); err != nil {
		t.Fatal(err)
	}
	g0 := remote2.Snapshot().Gets
	if _, err := ts2.Get(key); err != nil {
		t.Fatal(err)
	}
	if g := remote2.Snapshot().Gets; g != g0 {
		t.Fatalf("range fill did not cache the blob (Gets %d -> %d)", g0, g)
	}
}

// A blob larger than the memory tier cannot be cached, so filling it
// whole for every granule read costs the whole blob every time. Once
// the tier knows its size — from the first fill, from a Put through
// the tier, or from a Size probe — ranged reads of it reach the backing
// store as the ranges they are. A blob that fits still fills once.
func TestTieredOversizedBlobRangesPassThrough(t *testing.T) {
	const memBytes, reads, rangeLen = 1 << 10, 20, 64
	blob := bytes.Repeat([]byte("0123456789abcdef"), 2*memBytes/16)
	key := segKey("big.bin")
	readRanges := func(ts *TieredStore) {
		t.Helper()
		for i := 0; i < reads; i++ {
			off := i * rangeLen
			got, err := ts.GetRange(key, int64(off), rangeLen)
			if err != nil || !bytes.Equal(got, blob[off:off+rangeLen]) {
				t.Fatalf("range %d = %q, %v", i, got, err)
			}
		}
	}
	learn := map[string]func(*TieredStore, *storage.RemoteStore){
		"Size": func(ts *TieredStore, remote *storage.RemoteStore) {
			if err := remote.Put(key, blob); err != nil {
				t.Fatal(err)
			}
			if n, err := ts.Size(key); err != nil || n != int64(len(blob)) {
				t.Fatalf("Size = %d, %v", n, err)
			}
		},
		"Put": func(ts *TieredStore, _ *storage.RemoteStore) {
			if err := ts.Put(key, blob); err != nil {
				t.Fatal(err)
			}
		},
		"fill": func(ts *TieredStore, remote *storage.RemoteStore) {
			if err := remote.Put(key, blob); err != nil {
				t.Fatal(err)
			}
			if _, err := ts.GetRange(key, 0, rangeLen); err != nil { // fetches it whole, once
				t.Fatal(err)
			}
		},
	}
	for how, setup := range learn {
		ts, remote := newCountingTiered(t, Config{MemBytes: memBytes})
		setup(ts, remote)
		before := remote.Snapshot()
		readRanges(ts)
		after := remote.Snapshot()
		if gets, bytesRead := after.Gets-before.Gets, after.BytesRead-before.BytesRead; gets != reads || bytesRead != reads*rangeLen {
			t.Errorf("size learnt from %s: %d ranged reads of a %d-byte blob cost %d backing reads of %d bytes, want %d of %d",
				how, reads, len(blob), gets, bytesRead, reads, reads*rangeLen)
		}
		if st := ts.TierStats(); st.MemEntries != 0 {
			t.Errorf("size learnt from %s: oversized blob admitted: %+v", how, st)
		}
	}

	// An overwrite that fits is cached again; so is any blob that fits.
	ts, remote := newCountingTiered(t, Config{MemBytes: 4 * memBytes})
	if err := remote.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	before := remote.Snapshot()
	readRanges(ts)
	after := remote.Snapshot()
	if gets, bytesRead := after.Gets-before.Gets, after.BytesRead-before.BytesRead; gets != 1 || bytesRead != int64(len(blob)) {
		t.Errorf("%d ranged reads of an admissible blob cost %d backing reads of %d bytes, want one fill of %d", reads, gets, bytesRead, len(blob))
	}
	small, _ := newCountingTiered(t, Config{MemBytes: memBytes})
	if err := small.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	if err := small.Put(key, blob[:memBytes/2]); err != nil {
		t.Fatal(err)
	}
	if st := small.TierStats(); st.MemEntries != 1 {
		t.Errorf("overwrite that fits was not admitted: %+v", st)
	}
}

func TestTieredSizeAndList(t *testing.T) {
	ts, remote := newCountingTiered(t, Config{MemBytes: 1 << 20})
	if err := ts.Put(segKey("s"), []byte("12345")); err != nil {
		t.Fatal(err)
	}
	n, err := ts.Size(segKey("s"))
	if err != nil || n != 5 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	// List is always authoritative from the backing.
	keys, err := ts.List(storage.SegmentsPrefix("t"))
	if err != nil || len(keys) != 1 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	_ = remote
}

func TestTieredConfigValidation(t *testing.T) {
	if _, err := NewTiered(nil, Config{}); err == nil {
		t.Fatal("nil backing accepted")
	}
	if _, err := NewTiered(storage.NewMemStore(), Config{DiskBytes: 100}); err == nil {
		t.Fatal("DiskBytes without DiskDir/DiskStore accepted")
	}
	if _, err := NewTiered(storage.NewMemStore(), Config{
		MemBytes: 1, DiskBytes: 1, DiskDir: t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTieredConcurrentHammer drives mixed operations from many
// goroutines; run under -race it is the tier's data-race check. Every
// value carries its own checksum, and readers verify what they were
// lent twice — on receipt, and again after the tier has gone through
// further overwrites, deletes, evictions and spills of that key —
// because a read returns the cached bytes themselves, not a copy.
func TestTieredConcurrentHammer(t *testing.T) {
	ts, _ := newCountingTiered(t, Config{
		MemBytes: 512, DiskBytes: 1024, DiskStore: storage.NewMemStore(),
	})
	value := func(seed int) []byte {
		v := bytes.Repeat([]byte{byte(seed)}, 64)
		binary.LittleEndian.PutUint32(v[60:], crc32.ChecksumIEEE(v[:60]))
		return v
	}
	intact := func(v []byte) bool {
		return len(v) == 64 && binary.LittleEndian.Uint32(v[60:]) == crc32.ChecksumIEEE(v[:60])
	}
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 200; i++ {
				key := segKey(fmt.Sprintf("k%d", (w+i)%16))
				switch i % 4 {
				case 0:
					if err := ts.Put(key, value(i)); err != nil {
						t.Error(err)
						return
					}
				case 3:
					_ = ts.Delete(key)
				case 1:
					v, err := ts.Get(key)
					if err != nil && !storage.IsNotFound(err) {
						t.Error(err)
						return
					}
					if err == nil {
						if !intact(v) {
							t.Errorf("Get(%s) returned damaged bytes", key)
							return
						}
						held = append(held, v)
					}
				default:
					v, err := ts.GetRange(key, 60, 4)
					if err != nil && !storage.IsNotFound(err) {
						t.Error(err)
						return
					}
					if err == nil && len(v) != 4 {
						t.Errorf("GetRange(%s, 60, 4) returned %d bytes", key, len(v))
						return
					}
				}
			}
			for _, v := range held {
				if !intact(v) {
					t.Error("bytes lent earlier changed while held")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
