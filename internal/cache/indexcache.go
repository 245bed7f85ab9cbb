package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"blendhouse/internal/storage"
)

// IndexLoader deserializes an index blob into a searchable object.
// The engine supplies a closure that constructs the right index type
// for the segment and calls its Load method.
type IndexLoader func(blob []byte) (any, int64, error)

// HierStats counts where index lookups were satisfied, feeding the
// cache-miss experiment (paper Fig 11) and the elasticity runs.
type HierStats struct {
	MemHits     int64
	DiskHits    int64
	RemoteLoads int64
	Failures    int64
}

// IndexCache is the hierarchical vector-index cache of paper §II-D:
// an in-memory tier for searchable indexes, a local-disk tier holding
// raw blobs to avoid repeated remote reads, and the remote shared
// store as the source of truth.
type IndexCache struct {
	mem        *LRU[string] // deserialized indexes, keyed by blob key
	disk       storage.BlobStore
	diskBudget *LRU[string] // tracks which keys are on local disk, size-aware
	remote     storage.BlobStore

	loadMu sync.Mutex // serializes remote loads of the same key (simple global single-flight)

	memHits, diskHits, remoteLoads, failures atomic.Int64
}

// Config sizes the tiers. Zero disables a tier.
type Config struct {
	MemBytes  int64
	DiskBytes int64
}

// DefaultConfig suits a worker with a few GB of RAM.
func DefaultConfig() Config {
	return Config{MemBytes: 1 << 30, DiskBytes: 4 << 30}
}

// NewIndexCache builds the hierarchy. disk may be nil to run
// memory-over-remote only.
func NewIndexCache(cfg Config, disk, remote storage.BlobStore) *IndexCache {
	c := &IndexCache{
		mem:    NewLRU[string](cfg.MemBytes),
		disk:   disk,
		remote: remote,
	}
	if disk != nil {
		c.diskBudget = NewLRU[string](cfg.DiskBytes)
		c.diskBudget.SetOnEvict(func(key string, _ any) {
			// Budget exceeded: drop the local copy; remote remains.
			// Safe against the evict-vs-reinsert race in the SetOnEvict
			// contract: every diskBudget.Put happens under loadMu (in
			// fetchBlob), so this callback — which runs inside that Put —
			// cannot interleave with a re-insert of the same key.
			_ = disk.Delete(key)
		})
	}
	return c
}

// Stats snapshots the tier counters.
func (c *IndexCache) Stats() HierStats {
	return HierStats{
		MemHits:     c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		RemoteLoads: c.remoteLoads.Load(),
		Failures:    c.failures.Load(),
	}
}

// ContainsMem reports whether key's index is resident in memory —
// the scheduler uses this to detect cache misses without forcing a
// load.
func (c *IndexCache) ContainsMem(key string) bool {
	return c.mem.Contains(key)
}

// Get returns the deserialized index for key, loading through the
// tiers as needed: memory → local disk → remote. ctx bounds the remote
// blob fetch on a miss (nil = unbounded). The loader runs at most once
// per miss; its reported size drives memory accounting.
func (c *IndexCache) Get(ctx context.Context, key string, loader IndexLoader) (any, error) {
	if v, ok := c.mem.Get(key); ok {
		c.memHits.Add(1)
		return v, nil
	}
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	// Re-check under the load lock: another goroutine may have won.
	if v, ok := c.mem.Get(key); ok {
		c.memHits.Add(1)
		return v, nil
	}
	blob, fromDisk, err := c.fetchBlob(ctx, key)
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	if fromDisk {
		c.diskHits.Add(1)
	} else {
		c.remoteLoads.Add(1)
	}
	v, size, err := loader(blob)
	if err != nil {
		c.failures.Add(1)
		return nil, fmt.Errorf("cache: deserializing %s: %w", key, err)
	}
	c.mem.Put(key, v, size)
	return v, nil
}

// fetchBlob reads the raw index blob, preferring local disk, and
// populates the disk tier on a remote read.
func (c *IndexCache) fetchBlob(ctx context.Context, key string) (blob []byte, fromDisk bool, err error) {
	if c.disk != nil {
		if blob, err := c.disk.Get(key); err == nil {
			return blob, true, nil
		} else if !storage.IsNotFound(err) {
			return nil, false, err
		}
	}
	blob, err = storage.GetCtx(ctx, c.remote, key)
	if err != nil {
		return nil, false, err
	}
	if c.disk != nil {
		if err := c.disk.Put(key, blob); err == nil {
			c.diskBudget.Put(key, struct{}{}, int64(len(blob)))
		}
	}
	return blob, false, nil
}

// DropMem removes only the in-memory entry, keeping the disk copy —
// simulates a worker restart for the cache-miss experiments.
func (c *IndexCache) DropMem(key string) { c.mem.Remove(key) }

// PurgeMem empties the in-memory tier (worker restart simulation).
func (c *IndexCache) PurgeMem() { c.mem.Purge() }
