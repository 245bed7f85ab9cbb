// Package blobtier is BlendHouse's storage-proxy layer: BlobStore
// wrappers that sit between the engine and the (remote) shared store
// with zero call-site changes — the same composition pattern as the
// retry/fault stack.
//
//   - TieredStore: memory LRU → local-disk spill → backing store.
//     Write-through puts, read-through fills, per-tier byte budgets,
//     singleflight fill dedup, and a frequency gate on the memory tier
//     that keeps what is read often (the warehouse-side cache of
//     ByteHouse).
//   - EncryptingStore: AES-GCM at-rest encryption with a per-blob
//     nonce, composable anywhere in the stack (including as a backup
//     destination; BACKUP and RESTORE themselves are lsm's).
package blobtier

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"blendhouse/internal/cache"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// Tier metrics (SHOW METRICS / the /metrics endpoint). Process-global
// counters like every other subsystem; the per-engine byte gauges are
// registered as callbacks by core.
var (
	mMemHits   = obs.Default().Counter("bh.storage.tier.mem_hits")
	mDiskHits  = obs.Default().Counter("bh.storage.tier.disk_hits")
	mMisses    = obs.Default().Counter("bh.storage.tier.misses")
	mFills     = obs.Default().Counter("bh.storage.tier.fills")
	mDeclined  = obs.Default().Counter("bh.storage.tier.declined")
	mBypass    = obs.Default().Counter("bh.storage.tier.bypass")
	mEvictMem  = obs.Default().Counter("bh.storage.tier.evict_mem")
	mEvictDisk = obs.Default().Counter("bh.storage.tier.evict_disk")
	mSpills    = obs.Default().Counter("bh.storage.tier.spills")
	mSpillErrs = obs.Default().Counter("bh.storage.tier.spill_errors")
)

// DefaultSkipSubstrings lists the key fragments the tier never caches
// (reads and writes of such a key pass straight through): mutable blobs
// (the table manifest, delete bitmaps) and the WAL, whose blobs are
// written once and read once on recovery. Caching any of these would
// either serve stale catalog state or waste budget.
var DefaultSkipSubstrings = []string{"manifest.json", "/wal/", "delete.bmp"}

// Config sizes the cache tiers.
type Config struct {
	// MemBytes budgets the memory tier; <= 0 disables it.
	MemBytes int64
	// DiskBytes budgets the local-disk spill tier; <= 0 disables it.
	DiskBytes int64
	// DiskDir is where spilled blobs live (required when DiskBytes > 0
	// unless DiskStore is set).
	DiskDir string
	// DiskStore overrides the spill backend (tests inject fault
	// wrappers here); nil uses an FSStore at DiskDir.
	DiskStore storage.BlobStore
}

// TieredStore layers a memory LRU and a local-disk spill tier over a
// backing BlobStore. It is a full BlobStore (and CtxReader): puts are
// write-through (backing first — durability never depends on the
// cache), reads fill on miss, and blobs evicted from memory spill to
// disk instead of being dropped. Only immutable blobs are cached (see
// DefaultSkipSubstrings), so a cached entry can never go stale.
//
// A fill or disk promotion that fits in the memory tier's free space
// is admitted; one that would evict is admitted only if its key has
// been read more often than every key it would evict (see freq), and
// otherwise goes to the disk tier, as an evicted blob does. A Put is
// admitted whatever its count: a just-written blob is the newest data.
//
// Reads lend rather than copy (the storage.BlobStore contract): the
// slice a read returns is the one the memory tier holds, shared with
// every other reader of that key. Nobody writes to it — not the tier,
// not the callers — and eviction only drops the tier's reference, so
// a slice stays valid for as long as its holder keeps it.
type TieredStore struct {
	backing storage.BlobStore

	mem      *cache.LRU[string] // key -> []byte
	memBytes int64
	// tooBig holds the keys of blobs the memory tier refused for their
	// size (learnt from a fill, a Put or a Size): caching cannot help
	// them, so their ranged reads go to the backing store as ranges
	// instead of re-fetching the whole blob for every granule.
	tooBig sync.Map // key -> struct{}

	// Disk tier: the LRU tracks presence/recency/budget (value = size),
	// diskFS holds the bytes. diskMu serializes every disk-tier
	// mutation, which also scopes the LRU's eviction callback (fired
	// inside Put under diskMu) — see cache.LRU.SetOnEvict.
	diskMu sync.Mutex
	disk   *cache.LRU[string]
	diskFS storage.BlobStore

	sf   cache.Singleflight[string, []byte]
	freq *freq
	// gen counts invalidations (Put, Delete). A read snapshots it before
	// it reads the disk tier or the backing store and admits what it
	// read only if no invalidation has begun since, so a read racing an
	// overwrite or delete cannot cache the old bytes after it.
	gen      atomic.Uint64
	declined atomic.Int64
}

// NewTiered builds a TieredStore over backing.
func NewTiered(backing storage.BlobStore, cfg Config) (*TieredStore, error) {
	if backing == nil {
		return nil, fmt.Errorf("blobtier: backing store is required")
	}
	s := &TieredStore{
		backing:  backing,
		mem:      cache.NewLRU[string](cfg.MemBytes),
		memBytes: cfg.MemBytes,
		freq:     newFreq(),
	}
	if cfg.DiskBytes > 0 {
		s.diskFS = cfg.DiskStore
		if s.diskFS == nil {
			if cfg.DiskDir == "" {
				return nil, fmt.Errorf("blobtier: DiskBytes set but no DiskDir or DiskStore")
			}
			fs, err := storage.NewFSStore(cfg.DiskDir)
			if err != nil {
				return nil, err
			}
			s.diskFS = fs
		}
		s.disk = cache.NewLRU[string](cfg.DiskBytes)
		s.disk.SetOnEvict(func(key string, _ any) {
			mEvictDisk.Inc()
			_ = s.diskFS.Delete(key)
		})
	}
	// Memory evictions cascade to the disk tier rather than vanishing —
	// the blob is still one local read away instead of a remote fetch.
	// An evicted entry was current when it was evicted; the spill
	// checks for invalidations from here on.
	s.mem.SetOnEvict(func(key string, v any) {
		mEvictMem.Inc()
		s.spill(key, v.([]byte), s.gen.Load())
	})
	return s, nil
}

// Stats is a point-in-time view of the tier sizes (the per-engine
// gauges core registers read these).
type Stats struct {
	MemBytes, DiskBytes  int64
	MemEntries           int
	DiskEntries          int
	MemHits, MemMisses   int64
	DiskHits, DiskMisses int64
	// Declined counts fills and disk promotions the memory tier's
	// admission gate refused.
	Declined int64
}

// TierStats returns current tier occupancy and hit counters.
func (s *TieredStore) TierStats() Stats {
	st := Stats{
		MemBytes:   s.mem.SizeBytes(),
		MemEntries: s.mem.Len(),
		Declined:   s.declined.Load(),
	}
	st.MemHits, st.MemMisses = s.mem.Stats()
	if s.disk != nil {
		st.DiskBytes = s.disk.SizeBytes()
		st.DiskEntries = s.disk.Len()
		st.DiskHits, st.DiskMisses = s.disk.Stats()
	}
	return st
}

func (s *TieredStore) cacheable(key string) bool {
	for _, sub := range DefaultSkipSubstrings {
		if containsSub(key, sub) {
			return false
		}
	}
	return true
}

func containsSub(key, sub string) bool {
	// strings.Contains without the import dance in the hot path.
	for i := 0; i+len(sub) <= len(key); i++ {
		if key[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// clone is Put's copy: the caller keeps ownership of what it puts, so
// the tier must not share it. Reads never clone.
func clone(b []byte) []byte { return append([]byte(nil), b...) }

// Put implements BlobStore: write-through. The backing store is
// written FIRST — durability never depends on the cache — then stale
// cache copies are invalidated and the new value admitted to memory.
func (s *TieredStore) Put(key string, data []byte) error {
	if err := s.backing.Put(key, data); err != nil {
		return err
	}
	if !s.cacheable(key) {
		return nil
	}
	// Remove before re-admit: if the new value is too large for the
	// budget, Put below rejects it and a stale cached copy must not
	// survive the overwrite.
	s.invalidate(key)
	if s.noteSize(key, int64(len(data))) {
		s.mem.Put(key, clone(data), int64(len(data)))
	}
	return nil
}

// Get implements BlobStore.
func (s *TieredStore) Get(key string) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// GetCtx implements storage.CtxReader. A memory hit returns the cached
// slice itself — a map lookup, no allocation; a disk hit or a fill
// returns the slice it admitted. The result is read-only and may be
// held indefinitely (a loaded index keeps its vectors in it).
func (s *TieredStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	if !s.cacheable(key) {
		mBypass.Inc()
		return storage.GetCtx(ctx, s.backing, key)
	}
	s.count(key)
	if v, ok := s.mem.Get(key); ok {
		mMemHits.Inc()
		return v.([]byte), nil
	}
	gen := s.gen.Load()
	if data, ok := s.diskGet(key); ok {
		mDiskHits.Inc()
		s.admit(key, data, gen)
		return data, nil
	}
	mMisses.Inc()
	return s.fill(ctx, key, gen)
}

// GetRange implements BlobStore. A range miss fills the WHOLE blob
// (read-through): segment column reads are ranged but revisit the same
// blob, so one remote fetch serves every subsequent granule — unless
// the blob is known not to fit the memory tier, where the fetch would
// serve this granule only: then the range itself is passed through.
func (s *TieredStore) GetRange(key string, off, length int64) ([]byte, error) {
	return s.GetRangeCtx(nil, key, off, length)
}

// GetRangeCtx implements storage.CtxReader. The range is a sub-slice of
// the cached blob, read-only like GetCtx's result, with its capacity
// cut at its end so that an append by the caller reallocates instead
// of writing into the bytes that follow it in the cache.
func (s *TieredStore) GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("%w: off=%d len=%d", storage.ErrInvalidRange, off, length)
	}
	if !s.cacheable(key) {
		mBypass.Inc()
		return storage.GetRangeCtx(ctx, s.backing, key, off, length)
	}
	s.count(key)
	if v, ok := s.mem.Get(key); ok {
		mMemHits.Inc()
		return sliceRange(v.([]byte), off, length), nil
	}
	if _, big := s.tooBig.Load(key); big {
		mBypass.Inc()
		return storage.GetRangeCtx(ctx, s.backing, key, off, length)
	}
	gen := s.gen.Load()
	if data, ok := s.diskGet(key); ok {
		mDiskHits.Inc()
		s.admit(key, data, gen)
		return sliceRange(data, off, length), nil
	}
	mMisses.Inc()
	data, err := s.fill(ctx, key, gen)
	if err != nil {
		return nil, err
	}
	return sliceRange(data, off, length), nil
}

// sliceRange applies the BlobStore range contract (past-end clamps,
// fully-past-end is empty) to an in-memory blob, without copying: the
// result aliases v and cannot grow into it.
func sliceRange(v []byte, off, length int64) []byte {
	if off >= int64(len(v)) {
		return nil
	}
	end := off + length
	if end > int64(len(v)) {
		end = int64(len(v))
	}
	return v[off:end:end]
}

// Size implements BlobStore. It is a probe, not a read: a cached blob
// answers without moving in the eviction order, counting as a hit or
// counting toward admission.
func (s *TieredStore) Size(key string) (int64, error) {
	if s.cacheable(key) {
		if v, ok := s.mem.Peek(key); ok {
			return int64(len(v.([]byte))), nil
		}
	}
	n, err := s.backing.Size(key)
	if err == nil && s.cacheable(key) {
		s.noteSize(key, n)
	}
	return n, err
}

// Delete implements BlobStore.
func (s *TieredStore) Delete(key string) error {
	if err := s.backing.Delete(key); err != nil {
		return err
	}
	s.invalidate(key)
	return nil
}

// invalidate drops key from both tiers after an overwrite or delete of
// the backing copy. The generation moves first: a read that started
// before it and admits after it is refused (see admit), and one that
// admits before it is undone by the removals that follow.
func (s *TieredStore) invalidate(key string) {
	s.gen.Add(1)
	s.mem.Remove(key)
	s.invalidateDisk(key)
	s.tooBig.Delete(key)
}

// List implements BlobStore (always authoritative from the backing).
func (s *TieredStore) List(prefix string) ([]string, error) {
	return s.backing.List(prefix)
}

// fill fetches a missing blob from the backing store, deduplicating
// concurrent misses on the same key through singleflight: the leader
// and every waiter return the one slice the leader admitted.
func (s *TieredStore) fill(ctx context.Context, key string, gen uint64) ([]byte, error) {
	return s.sf.Do(key, func() ([]byte, error) {
		d, err := storage.GetCtx(ctx, s.backing, key)
		if err != nil {
			return nil, err
		}
		mFills.Inc()
		s.admit(key, d, gen)
		return d, nil
	})
}

// count records a read of key for the admission gate.
func (s *TieredStore) count(key string) {
	if s.freq.touch(key) {
		s.freq.age(s.mem.Len())
	}
}

// admit offers a blob read from the disk tier or the backing store to
// the memory tier. data is never modified, by the BlobStore contract;
// from here on the tier and every reader it is handed to share it,
// read-only. gen is the invalidation generation the read began at:
// if it has moved, the bytes may be stale and are not cached at all.
// A blob the gate declines (see TieredStore) goes to the disk tier.
func (s *TieredStore) admit(key string, data []byte, gen uint64) {
	if !s.noteSize(key, int64(len(data))) {
		return
	}
	declined := false
	s.mem.PutIf(key, data, int64(len(data)), func(victims []string) bool {
		if s.gen.Load() != gen {
			return false
		}
		declined = !s.freq.admits(key, victims)
		return !declined
	})
	if !declined {
		return
	}
	mDeclined.Inc()
	s.declined.Add(1)
	s.spill(key, data, gen)
}

// noteSize reports whether a blob of size bytes fits the memory tier,
// and remembers the key of one that does not.
func (s *TieredStore) noteSize(key string, size int64) bool {
	if size <= s.memBytes {
		return true
	}
	s.tooBig.Store(key, struct{}{})
	return false
}

// spill moves a blob evicted from, or declined by, the memory tier to
// the disk tier, unless an invalidation has begun since generation
// gen. Failures are counted and the blob dropped — the backing store
// still has it, so a spill failure degrades to a future remote
// re-fetch, never data loss.
func (s *TieredStore) spill(key string, data []byte, gen uint64) {
	if s.disk == nil {
		return
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if s.gen.Load() != gen || s.disk.Contains(key) {
		return
	}
	if err := s.diskFS.Put(key, data); err != nil {
		mSpillErrs.Inc()
		return
	}
	if !s.disk.Put(key, int64(len(data)), int64(len(data))) {
		_ = s.diskFS.Delete(key)
		return
	}
	mSpills.Inc()
}

// diskGet reads a blob from the disk tier. A file that cannot be read
// back is dropped from the tier (self-healing: the next Get falls
// through to the backing store).
func (s *TieredStore) diskGet(key string) ([]byte, bool) {
	if s.disk == nil {
		return nil, false
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if _, ok := s.disk.Get(key); !ok {
		return nil, false
	}
	data, err := s.diskFS.Get(key)
	if err != nil {
		s.disk.Remove(key)
		_ = s.diskFS.Delete(key)
		return nil, false
	}
	return data, true
}

func (s *TieredStore) invalidateDisk(key string) {
	if s.disk == nil {
		return
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	s.disk.Remove(key)
	_ = s.diskFS.Delete(key)
}
