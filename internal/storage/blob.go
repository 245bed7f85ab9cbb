// Package storage provides the disaggregated persistence layer of
// BlendHouse: a blob store abstraction standing in for the remote
// distributed storage of ByteHouse (AWS S3 / HDFS in the paper), plus
// the columnar immutable-segment format the LSM engine writes into it.
//
// Remote reads are the central performance fact of the disaggregated
// architecture — "higher data fetching latency ... hinder[s] the
// system's ability to simultaneously achieve high performance"
// (paper §I) — so RemoteStore wraps any backing store with a
// configurable per-operation latency and bandwidth model and counts
// every operation, letting benchmarks measure exactly how much I/O
// each strategy saves.
package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
)

// ErrNotFound is returned for missing keys.
type ErrNotFound struct{ Key string }

func (e *ErrNotFound) Error() string { return fmt.Sprintf("storage: key %q not found", e.Key) }

// IsNotFound reports whether err is a missing-key error.
func IsNotFound(err error) bool {
	_, ok := err.(*ErrNotFound)
	return ok
}

// BlobStore is the persistence interface. Keys are slash-separated
// paths. Implementations must be safe for concurrent use.
//
// Ownership of bytes. Put copies what it needs: the caller keeps data
// and may reuse it once Put returns. Reads go the other way — the
// bytes Get and GetRange return (and the CtxReader variants) are
// READ-ONLY for the caller and stay valid for as long as the caller
// holds them. A store may return memory it also keeps and hands to
// other readers (the blob tier's memory cache does), so a consumer
// decodes out of the slice or keeps referencing it (a loaded index
// borrows its vectors from the blob), but never writes into it, never
// appends to it expecting spare capacity, and copies first if it needs
// a scratch buffer. Wrappers pass slices through untouched.
type BlobStore interface {
	// Put stores a copy of data under key, overwriting any previous
	// value.
	Put(key string, data []byte) error
	// Get returns the full value, read-only (see above).
	Get(key string) ([]byte, error)
	// GetRange returns length bytes starting at off, read-only. Reading
	// past the end returns the available suffix (like HTTP range
	// requests).
	GetRange(key string, off, length int64) ([]byte, error)
	// Size returns the value's length in bytes.
	Size(key string) (int64, error)
	// Delete removes a key. Deleting a missing key is not an error.
	Delete(key string) error
	// List returns all keys with the prefix, sorted.
	List(prefix string) ([]string, error)
}

// CtxReader is optionally implemented by stores whose read operations
// can be bounded by a context — a fired deadline interrupts the
// operation (including any modeled network latency) instead of letting
// it run to completion. Stores without per-operation cost don't need
// it; the GetCtx/GetRangeCtx helpers fall back to a plain read after a
// cheap cancellation check. The returned bytes are read-only and
// long-lived exactly as BlobStore's are.
type CtxReader interface {
	GetCtx(ctx context.Context, key string) ([]byte, error)
	GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error)
}

// GetCtx reads a full value honoring ctx: the read is skipped when ctx
// is already done, and stores implementing CtxReader abort mid-transfer
// when it fires.
func GetCtx(ctx context.Context, s BlobStore, key string) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cr, ok := s.(CtxReader); ok {
			return cr.GetCtx(ctx, key)
		}
	}
	return s.Get(key)
}

// GetRangeCtx is GetCtx for range reads.
func GetRangeCtx(ctx context.Context, s BlobStore, key string, off, length int64) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cr, ok := s.(CtxReader); ok {
			return cr.GetRangeCtx(ctx, key, off, length)
		}
	}
	return s.GetRange(key, off, length)
}

// TracedGet is GetCtx that charges the read to the trace ctx carries
// (obs.TraceFrom): a segment's column blobs (SegmentReader) and its
// index blob (lsm.Table.LoadIndex) are counted here and nowhere else,
// so a read retried or served by a wrapper below counts once. On an
// untraced ctx it adds nothing but the lookup — no clock, no allocation.
func TracedGet(ctx context.Context, s BlobStore, key string) ([]byte, error) {
	t := obs.TraceFrom(ctx)
	if t == nil {
		return GetCtx(ctx, s, key)
	}
	start := time.Now()
	b, err := GetCtx(ctx, s, key)
	t.AddRead(int64(len(b)), time.Since(start))
	return b, err
}

// tracedGetRange is TracedGet for range reads.
func tracedGetRange(ctx context.Context, s BlobStore, key string, off, length int64) ([]byte, error) {
	t := obs.TraceFrom(ctx)
	if t == nil {
		return GetRangeCtx(ctx, s, key, off, length)
	}
	start := time.Now()
	b, err := GetRangeCtx(ctx, s, key, off, length)
	t.AddRead(int64(len(b)), time.Since(start))
	return b, err
}

// MemStore is an in-memory BlobStore for tests and single-process use.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: map[string][]byte{}}
}

// Put implements BlobStore.
func (s *MemStore) Put(key string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.data[key] = cp
	s.mu.Unlock()
	return nil
}

// Get implements BlobStore. It copies although the contract would let
// it lend: MemStore is the durable store of tests and benchmarks, and
// the copy stands in for the buffer a network read fills, so a caller
// that breaks the read-only rule cannot damage durable bytes.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, &ErrNotFound{key}
	}
	return append([]byte(nil), v...), nil
}

// GetRange implements BlobStore.
func (s *MemStore) GetRange(key string, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, &ErrNotFound{key}
	}
	return clampRange(v, off, length)
}

// Size implements BlobStore.
func (s *MemStore) Size(key string) (int64, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return 0, &ErrNotFound{key}
	}
	return int64(len(v)), nil
}

// Delete implements BlobStore.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	delete(s.data, key)
	s.mu.Unlock()
	return nil
}

// List implements BlobStore.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

func clampRange(v []byte, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	if off >= int64(len(v)) {
		return nil, nil
	}
	end := off + length
	if end > int64(len(v)) {
		end = int64(len(v))
	}
	return append([]byte(nil), v[off:end]...), nil
}

// FSStore persists blobs as files under a root directory — the "local
// disk" tier of the hierarchical cache and a durable store for the CLI.
type FSStore struct {
	root string
}

// NewFSStore creates the root directory if needed.
func NewFSStore(root string) (*FSStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating root: %w", err)
	}
	return &FSStore{root: root}, nil
}

func (s *FSStore) path(key string) string {
	return filepath.Join(s.root, filepath.FromSlash(key))
}

// Put implements BlobStore. The write is crash-atomic: data lands in
// a uniquely-named temp file in the destination directory, is fsynced
// before the rename, and the directory entry is fsynced after — so a
// crash at any point leaves either the old value or the new one,
// never a torn blob. The WAL's acknowledged⇒durable guarantee rests
// on this.
func (s *FSStore) Put(key string, data []byte) error {
	p := s.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: mkdir for %s: %w", key, err)
	}
	// Unique temp name (not p+".tmp") so concurrent Puts to the same
	// key never clobber each other's in-flight file; the ".tmp" suffix
	// keeps List skipping it.
	f, err := os.CreateTemp(dir, filepath.Base(p)+".*.tmp")
	if err != nil {
		return fmt.Errorf("storage: temp for %s: %w", key, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: writing %s: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best-effort: rename already happened
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems reject fsync on directories; the rename is
		// still ordered after the file fsync, which is the part the
		// durability argument needs.
		return nil
	}
	return nil
}

// Get implements BlobStore.
func (s *FSStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, &ErrNotFound{key}
	}
	return data, err
}

// GetRange implements BlobStore.
func (s *FSStore) GetRange(key string, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nil, &ErrNotFound{key}
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off >= st.Size() {
		return nil, nil
	}
	end := off + length
	if end > st.Size() {
		end = st.Size()
	}
	buf := make([]byte, end-off)
	_, err = f.ReadAt(buf, off)
	return buf, err
}

// Size implements BlobStore.
func (s *FSStore) Size(key string) (int64, error) {
	st, err := os.Stat(s.path(key))
	if os.IsNotExist(err) {
		return 0, &ErrNotFound{key}
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Delete implements BlobStore.
func (s *FSStore) Delete(key string) error {
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements BlobStore.
func (s *FSStore) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.Walk(s.root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.HasSuffix(p, ".tmp") {
			return err
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// RemoteConfig models the cost of talking to remote shared storage.
type RemoteConfig struct {
	// OpLatency is charged once per operation (the network round trip).
	OpLatency time.Duration
	// BytesPerSecond caps transfer speed; 0 means unlimited.
	BytesPerSecond int64
}

// DefaultRemoteConfig approximates an object store in the same region:
// ~1ms round trip, ~1 GB/s.
func DefaultRemoteConfig() RemoteConfig {
	return RemoteConfig{OpLatency: time.Millisecond, BytesPerSecond: 1 << 30}
}

// Stats counts operations and bytes through a RemoteStore.
type Stats struct {
	Gets, Puts, Deletes, Lists int64
	BytesRead, BytesWritten    int64
}

// RemoteStore wraps a backing store with the remote cost model and
// operation counters. It is how every benchmark knows exactly how much
// remote I/O a strategy caused.
type RemoteStore struct {
	backing BlobStore
	cfg     RemoteConfig

	gets, puts, deletes, lists atomic.Int64
	bytesRead, bytesWritten    atomic.Int64
}

// NewRemoteStore wraps backing with the given cost model.
func NewRemoteStore(backing BlobStore, cfg RemoteConfig) *RemoteStore {
	return &RemoteStore{backing: backing, cfg: cfg}
}

// Snapshot returns the operation counters.
func (s *RemoteStore) Snapshot() Stats {
	return Stats{
		Gets: s.gets.Load(), Puts: s.puts.Load(), Deletes: s.deletes.Load(), Lists: s.lists.Load(),
		BytesRead: s.bytesRead.Load(), BytesWritten: s.bytesWritten.Load(),
	}
}

// chargeCtx models the operation cost but gives up early when ctx
// fires — the mechanism that lets a canceled query abandon an
// in-flight "network" transfer instead of waiting it out.
func (s *RemoteStore) chargeCtx(ctx context.Context, nbytes int64) error {
	d := s.cfg.OpLatency
	if s.cfg.BytesPerSecond > 0 {
		d += time.Duration(float64(nbytes) / float64(s.cfg.BytesPerSecond) * float64(time.Second))
	}
	return retry.Sleep(ctx, d)
}

// Put implements BlobStore.
func (s *RemoteStore) Put(key string, data []byte) error {
	_ = s.chargeCtx(nil, int64(len(data))) // a nil ctx never fires
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	return s.backing.Put(key, data)
}

// Get implements BlobStore.
func (s *RemoteStore) Get(key string) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// GetCtx implements CtxReader: the modeled transfer cost is abandoned
// when ctx fires.
func (s *RemoteStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	data, err := s.backing.Get(key)
	if cerr := s.chargeCtx(ctx, int64(len(data))); cerr != nil {
		return nil, cerr
	}
	s.gets.Add(1)
	s.bytesRead.Add(int64(len(data)))
	return data, err
}

// GetRange implements BlobStore.
func (s *RemoteStore) GetRange(key string, off, length int64) ([]byte, error) {
	return s.GetRangeCtx(nil, key, off, length)
}

// GetRangeCtx implements CtxReader.
func (s *RemoteStore) GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error) {
	data, err := s.backing.GetRange(key, off, length)
	if cerr := s.chargeCtx(ctx, int64(len(data))); cerr != nil {
		return nil, cerr
	}
	s.gets.Add(1)
	s.bytesRead.Add(int64(len(data)))
	return data, err
}

// Size implements BlobStore.
func (s *RemoteStore) Size(key string) (int64, error) {
	_ = s.chargeCtx(nil, 0)
	return s.backing.Size(key)
}

// Delete implements BlobStore.
func (s *RemoteStore) Delete(key string) error {
	_ = s.chargeCtx(nil, 0)
	s.deletes.Add(1)
	return s.backing.Delete(key)
}

// List implements BlobStore.
func (s *RemoteStore) List(prefix string) ([]string, error) {
	_ = s.chargeCtx(nil, 0)
	s.lists.Add(1)
	return s.backing.List(prefix)
}
