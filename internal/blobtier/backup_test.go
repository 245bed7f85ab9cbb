package blobtier

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
	"blendhouse/internal/wal"
)

// BACKUP and RESTORE are lsm's (lsm.Table.Backup, lsm.Restore); these
// tests hold them to their contract over real tables and the stores
// this package wraps them in.

// liveTable creates table "tt" in store through its write-ahead log:
// 40 rows flushed into two segments, row 3 deleted (a delete bitmap and
// a WAL record), then 10 rows that live only in the WAL tail.
func liveTable(t *testing.T, store storage.BlobStore) *lsm.Table {
	t.Helper()
	tab, err := lsm.Create(store, lsm.Options{
		Name: "tt",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "v", Type: storage.VectorType, Dim: 4},
		}},
		IndexColumn: "v",
		IndexType:   index.Flat,
		SegmentRows: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableWAL(lsm.WALConfig{MaxMemRows: 1 << 20, FlushInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.CloseWAL() })
	ctx := context.Background()
	insert := func(start, n int) {
		b := storage.NewRowBatch(tab.Schema())
		for id := start; id < start+n; id++ {
			b.Col("id").Ints = append(b.Col("id").Ints, int64(id))
			b.Col("v").Vecs = append(b.Col("v").Vecs, float32(id), float32(id%7), 1, -float32(id))
		}
		if err := tab.Insert(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 40)
	if err := tab.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if n, err := tab.DeleteByKey(ctx, "id", []int64{3}); err != nil || n != 1 {
		t.Fatalf("delete: %d rows, %v", n, err)
	}
	insert(40, 10)
	return tab
}

// liveIDs lists the ids a query of tab sees, sorted.
func liveIDs(t *testing.T, tab *lsm.Table) []int64 {
	t.Helper()
	v, segs := tab.Acquire()
	defer v.Release()
	var ids []int64
	for _, s := range segs {
		col, err := s.Reader.ReadColumn(context.Background(), "id")
		if err != nil {
			t.Fatal(err)
		}
		for r, id := range col.Ints {
			if s.Deletes == nil || !s.Deletes.Test(r) {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	return ids
}

// snapshotKeys captures every table blob for byte-identity comparison.
func snapshotKeys(t *testing.T, store storage.BlobStore, table string) map[string][]byte {
	t.Helper()
	keys, err := store.List("tables/" + table + "/")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, k := range keys {
		data, err := store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = data
	}
	return out
}

func sameBlobSets(t *testing.T, want, got map[string][]byte, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d blobs, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("%s: blob %q differs", what, k)
		}
	}
}

func sameIDs(t *testing.T, want, got []int64, what string) {
	t.Helper()
	if !slices.Equal(want, got) {
		t.Fatalf("%s: ids %v, want %v", what, got, want)
	}
}

// backup runs BACKUP of a fresh liveTable in a new store into dst.
func backup(t *testing.T, dst storage.BlobStore) (*lsm.Table, *lsm.BackupManifest) {
	t.Helper()
	tab := liveTable(t, storage.NewMemStore())
	bm, err := tab.Backup(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	return tab, bm
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	dst := storage.NewMemStore()
	tab, bm := backup(t, dst)
	if bm.SnapshotLSN != tab.FlushedLSN() {
		t.Fatalf("SnapshotLSN = %d, want the flushed watermark %d", bm.SnapshotLSN, tab.FlushedLSN())
	}
	// Two segments, the WAL tail (the delete and the 10 rows) and the
	// manifest; every copied blob is the source's, byte for byte.
	segs, walBlobs := map[string]bool{}, 0
	for _, b := range bm.Blobs {
		if rest, ok := strings.CutPrefix(b.Key, storage.SegmentsPrefix("tt")); ok {
			seg, _, _ := strings.Cut(rest, "/")
			segs[seg] = true
		}
		if strings.HasPrefix(b.Key, wal.Prefix("tt")) {
			walBlobs++
		}
		got, err := dst.Get(b.Key)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := tab.Store().Get(b.Key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("backed-up blob %q differs from the source (%v)", b.Key, err)
		}
	}
	if len(segs) != 2 || walBlobs != 2 {
		t.Fatalf("backup holds %d segments and %d WAL blobs, want 2 and 2", len(segs), walBlobs)
	}

	rt, rm, err := lsm.Restore(ctx, dst, storage.NewMemStore(), "tt")
	if err != nil {
		t.Fatal(err)
	}
	if rm.SnapshotLSN != bm.SnapshotLSN || len(rm.Blobs) != len(bm.Blobs) {
		t.Fatalf("restored manifest mismatch: %+v vs %+v", rm, bm)
	}
	if rt.FlushedLSN() <= rm.SnapshotLSN {
		t.Fatalf("no PITR replay: restored lsn %d, snapshot lsn %d", rt.FlushedLSN(), rm.SnapshotLSN)
	}
	sameIDs(t, liveIDs(t, tab), liveIDs(t, rt), "restored table")
}

func TestRestoreRequiresMarker(t *testing.T) {
	ctx := context.Background()
	out := storage.NewMemStore()
	// Empty source: nothing to restore.
	if _, _, err := lsm.Restore(ctx, storage.NewMemStore(), out, "tt"); !errors.Is(err, lsm.ErrNoBackup) {
		t.Fatalf("empty source: err = %v, want ErrNoBackup", err)
	}
	// Torn backup: every data blob present but the marker missing —
	// invisible to restore by design.
	dst := storage.NewMemStore()
	backup(t, dst)
	if err := dst.Delete(lsm.MarkerKey("tt")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lsm.Restore(ctx, dst, out, "tt"); !errors.Is(err, lsm.ErrNoBackup) {
		t.Fatalf("markerless backup: err = %v, want ErrNoBackup", err)
	}
}

func TestRestoreDetectsCorruption(t *testing.T) {
	ctx := context.Background()
	dst := storage.NewMemStore()
	backup(t, dst)
	// Flip a byte in one backed-up segment blob.
	key := storage.SegmentsPrefix("tt") + "seg00000000/col_id.bin"
	blob, err := dst.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	blob = append([]byte(nil), blob...)
	blob[0] ^= 0xff
	if err := dst.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	out := storage.NewMemStore()
	if _, _, err := lsm.Restore(ctx, dst, out, "tt"); !errors.Is(err, lsm.ErrCorruptBackup) {
		t.Fatalf("corrupt blob: err = %v, want ErrCorruptBackup", err)
	}
	// The table manifest is copied last, so the aborted restore left no
	// openable table behind.
	if names, err := lsm.Tables(out); err != nil || len(names) != 0 {
		t.Fatalf("aborted restore left tables %v (err=%v)", names, err)
	}
}

func TestRestoreRefusesExistingTable(t *testing.T) {
	dst := storage.NewMemStore()
	backup(t, dst)
	out := storage.NewMemStore()
	liveTable(t, out) // target already live
	if _, _, err := lsm.Restore(context.Background(), dst, out, "tt"); !errors.Is(err, lsm.ErrRestoreExists) {
		t.Fatalf("existing target: err = %v, want ErrRestoreExists", err)
	}
}

func TestBackupEncryptedDestination(t *testing.T) {
	ctx := context.Background()
	raw := storage.NewMemStore()
	dst, err := NewEncrypting(raw, KeyFromString("backup secret"))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := backup(t, dst)
	// The raw destination holds only ciphertext.
	key := storage.SegmentsPrefix("tt") + "seg00000000/meta.json"
	plain, err := tab.Store().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := raw.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, plain[:16]) {
		t.Fatal("plaintext visible in encrypted backup destination")
	}
	// Right key restores the same table.
	rt, _, err := lsm.Restore(ctx, dst, storage.NewMemStore(), "tt")
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, liveIDs(t, tab), liveIDs(t, rt), "encrypted round trip")
	// Wrong key cannot even read the marker.
	wrong, err := NewEncrypting(raw, KeyFromString("not the secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lsm.Restore(ctx, wrong, storage.NewMemStore(), "tt"); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key: err = %v, want ErrDecrypt", err)
	}
}

// TestBackupFaultLeavesNoTornBackup (chaos satellite): a destination
// that dies mid-backup yields a failed backup, an untouched source,
// and a destination with no marker — absent-or-complete, never torn.
func TestBackupFaultLeavesNoTornBackup(t *testing.T) {
	ctx := context.Background()
	tab := liveTable(t, storage.NewMemStore())
	before := snapshotKeys(t, tab.Store(), "tt")

	inner := storage.NewMemStore()
	dst := storage.NewFaultStore(inner, storage.FaultConfig{
		Seed: 42,
		Rules: []storage.FaultRule{
			{Op: storage.FaultOpPut, FailAfter: 3, Permanent: true},
		},
	})
	if _, err := tab.Backup(ctx, dst); err == nil {
		t.Fatal("backup against a failing destination succeeded")
	}
	if _, err := inner.Get(lsm.MarkerKey("tt")); !storage.IsNotFound(err) {
		t.Fatalf("failed backup left a marker (err=%v)", err)
	}
	if _, _, err := lsm.Restore(ctx, inner, storage.NewMemStore(), "tt"); !errors.Is(err, lsm.ErrNoBackup) {
		t.Fatalf("torn destination restorable: err = %v, want ErrNoBackup", err)
	}
	sameBlobSets(t, before, snapshotKeys(t, tab.Store(), "tt"), "source after failed backup")
}

// phantomListStore lists one WAL blob that no longer exists — the
// shape of a truncation that ran between List and Get. Below the
// flushed watermark that is provably safe to skip.
type phantomListStore struct {
	storage.BlobStore
	phantom string
}

func (s *phantomListStore) List(prefix string) ([]string, error) {
	keys, err := s.BlobStore.List(prefix)
	if err != nil {
		return nil, err
	}
	if s.phantom != "" && strings.HasPrefix(s.phantom, prefix) {
		keys = append([]string{s.phantom}, keys...)
	}
	return keys, nil
}

func TestBackupSkipsVanishedWALBelowWatermark(t *testing.T) {
	src := &phantomListStore{BlobStore: storage.NewMemStore()}
	tab := liveTable(t, src) // flushed watermark: LSN 1
	src.phantom = fmt.Sprintf("%s%016x-%016x.log", wal.Prefix("tt"), int64(1), tab.FlushedLSN())

	bm, err := tab.Backup(context.Background(), storage.NewMemStore())
	if err != nil {
		t.Fatalf("vanished below-watermark WAL blob failed the backup: %v", err)
	}
	tail := 0
	for _, b := range bm.Blobs {
		if b.Key == src.phantom {
			t.Fatal("phantom WAL blob recorded in the backup manifest")
		}
		if strings.HasPrefix(b.Key, wal.Prefix("tt")) {
			tail++
		}
	}
	// The real tail blobs above the watermark must still be there.
	if tail != 2 {
		t.Fatalf("backup holds %d WAL tail blobs, want 2", tail)
	}
}
