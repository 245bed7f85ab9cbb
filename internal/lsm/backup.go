package lsm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
	"blendhouse/internal/wal"
)

var (
	mBackupRuns  = obs.Default().Counter("bh.backup.runs")
	mBackupBlobs = obs.Default().Counter("bh.backup.blobs")
	mBackupBytes = obs.Default().Counter("bh.backup.bytes")
	mRestoreRuns = obs.Default().Counter("bh.restore.runs")
)

var backupLog = obs.Logger("backup")

// Typed backup/restore failures (user-addressable: wrong path, wrong
// table, torn destination).
var (
	// ErrNoBackup: the source has no complete backup for the table —
	// either nothing was ever written there or a backup was torn before
	// its marker landed.
	ErrNoBackup = errors.New("lsm: no complete backup found")
	// ErrCorruptBackup: a blob listed in the backup manifest is missing
	// or fails its checksum.
	ErrCorruptBackup = errors.New("lsm: backup corrupt")
	// ErrRestoreExists: the restore target already holds blobs for the
	// table; restore refuses to merge into live state.
	ErrRestoreExists = errors.New("lsm: restore target table already exists")
)

// BackupBlob is one copied blob with its integrity checksum.
type BackupBlob struct {
	Key    string `json:"key"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// BackupManifest is the backup marker blob: it is written LAST, after
// every data blob landed, so its presence certifies a complete backup
// (a torn backup has no marker and restore refuses it). It lists every
// blob with a checksum for verification on restore.
type BackupManifest struct {
	Version int    `json:"version"`
	Table   string `json:"table"`
	// SnapshotLSN is the flushed watermark of the backed-up Version:
	// every WAL record above it rides along in the copied tail and is
	// replayed on restore (point-in-time recovery).
	SnapshotLSN int64        `json:"snapshot_lsn"`
	Blobs       []BackupBlob `json:"blobs"`
	Bytes       int64        `json:"bytes"`
	CreatedUnix int64        `json:"created_unix"`
}

// MarkerKey is where a table's backup marker lives in the destination
// store.
func MarkerKey(table string) string { return "backup/" + table + "/manifest.json" }

// Tables lists the tables store holds: every name with a manifest.
func Tables(store storage.BlobStore) ([]string, error) {
	keys, err := store.List("tables/")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, k := range keys {
		name, ok := strings.CutSuffix(strings.TrimPrefix(k, "tables/"), "/manifest.json")
		if ok && !strings.Contains(name, "/") {
			names = append(names, name)
		}
	}
	return names, nil
}

// Backup snapshots the table into dst while writes go on. Under one
// hold of t.mu it pins the current Version, renders that Version's
// manifest and pins WAL truncation; then, with no lock held, it copies
// the pinned segments' blobs, the WAL tail, the manifest and, strictly
// last, the marker. A compaction meanwhile deletes no blob of a pinned
// segment, and the pinned log keeps every record above the manifest's
// watermark, so the backup is one pass at one Version. Writes racing
// the copy (a newer delete bitmap, WAL records past the watermark)
// ride along when they land before their blobs are read, and replay on
// restore: the restored table is a consistent point at or after the
// Version. Until the marker lands dst holds no restorable backup
// (absent-or-complete, never torn).
func (t *Table) Backup(ctx context.Context, dst storage.BlobStore) (*BackupManifest, error) {
	t.mu.Lock()
	v := t.cur
	v.pins.Add(1)
	manifestBlob, err := t.manifestBlobLocked()
	lsn := t.flushedLSN
	unpin := t.pinWALTruncateLocked()
	t.mu.Unlock()
	defer v.Release()
	defer unpin()
	if err != nil {
		return nil, err
	}
	name := t.opts.Name
	bm := &BackupManifest{Version: 1, Table: name, SnapshotLSN: lsn, CreatedUnix: time.Now().Unix()}
	copyBlob := func(key string, data []byte) error {
		if err := dst.Put(key, data); err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		bm.Blobs = append(bm.Blobs, BackupBlob{Key: key, Size: int64(len(data)), SHA256: hex.EncodeToString(sum[:])})
		bm.Bytes += int64(len(data))
		return nil
	}
	copyKeys := func(keys []string, vanished func(key string) bool) error {
		for _, k := range keys {
			if err := ctx.Err(); err != nil {
				return err
			}
			data, err := storage.GetCtx(ctx, t.store, k)
			if storage.IsNotFound(err) && vanished(k) {
				continue
			}
			if err != nil {
				return err
			}
			if err := copyBlob(k, data); err != nil {
				return err
			}
		}
		return nil
	}
	never := func(string) bool { return false }
	for _, s := range v.Segments {
		keys, err := t.store.List(segmentsPrefix(name) + s.Meta.Name + "/")
		if err != nil {
			return nil, err
		}
		if err := copyKeys(keys, never); err != nil {
			return nil, err
		}
	}
	// A WAL blob vanishes only when a flush that read the watermark
	// before the pin truncates it after: it held records at or below a
	// watermark already durable, so it is safely skipped.
	walKeys, err := t.store.List(wal.Prefix(name))
	if err != nil {
		return nil, err
	}
	sort.Strings(walKeys)
	err = copyKeys(walKeys, func(k string) bool {
		_, last, ok := wal.ParseBlobLSNs(k)
		return ok && last <= lsn
	})
	if err != nil {
		return nil, err
	}
	if err := copyBlob(manifestKey(name), manifestBlob); err != nil {
		return nil, err
	}
	marker, err := json.Marshal(bm)
	if err != nil {
		return nil, err
	}
	if err := dst.Put(MarkerKey(name), marker); err != nil {
		return nil, err
	}
	mBackupRuns.Inc()
	mBackupBlobs.Add(int64(len(bm.Blobs)))
	mBackupBytes.Add(bm.Bytes)
	backupLog.Info("backup complete", "table", name,
		"blobs", len(bm.Blobs), "bytes", bm.Bytes, "snapshot_lsn", bm.SnapshotLSN)
	return bm, nil
}

// Restore copies the backup of table name from src into store at the
// blobs' original keys, verifying every checksum, and opens the table,
// which replays the copied WAL tail past SnapshotLSN (point-in-time
// recovery). It refuses a store that already holds the table and a
// source without a complete marker (torn backups are invisible). The
// manifest is copied last, so a torn restore leaves no table to open.
func Restore(ctx context.Context, src, store storage.BlobStore, name string) (*Table, *BackupManifest, error) {
	markerBlob, err := storage.GetCtx(ctx, src, MarkerKey(name))
	if storage.IsNotFound(err) {
		return nil, nil, fmt.Errorf("%w for table %q", ErrNoBackup, name)
	}
	if err != nil {
		return nil, nil, err
	}
	var bm BackupManifest
	if err := json.Unmarshal(markerBlob, &bm); err != nil {
		return nil, nil, fmt.Errorf("%w: unreadable marker: %v", ErrCorruptBackup, err)
	}
	if bm.Table != name {
		return nil, nil, fmt.Errorf("%w: marker names table %q", ErrCorruptBackup, bm.Table)
	}
	existing, err := store.List("tables/" + name + "/")
	if err != nil {
		return nil, nil, err
	}
	if len(existing) > 0 {
		return nil, nil, fmt.Errorf("%w: %q has %d blobs", ErrRestoreExists, name, len(existing))
	}
	blobs := append([]BackupBlob(nil), bm.Blobs...)
	sort.SliceStable(blobs, func(i, j int) bool {
		return blobs[i].Key != manifestKey(name) && blobs[j].Key == manifestKey(name)
	})
	for _, b := range blobs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		data, err := storage.GetCtx(ctx, src, b.Key)
		if storage.IsNotFound(err) {
			return nil, nil, fmt.Errorf("%w: blob %q missing", ErrCorruptBackup, b.Key)
		}
		if err != nil {
			return nil, nil, err
		}
		sum := sha256.Sum256(data)
		if int64(len(data)) != b.Size || hex.EncodeToString(sum[:]) != b.SHA256 {
			return nil, nil, fmt.Errorf("%w: blob %q fails verification", ErrCorruptBackup, b.Key)
		}
		if err := store.Put(b.Key, data); err != nil {
			return nil, nil, err
		}
	}
	t, err := Open(store, name)
	if err != nil {
		return nil, nil, err
	}
	mRestoreRuns.Inc()
	backupLog.Info("restore complete", "table", name,
		"blobs", len(bm.Blobs), "bytes", bm.Bytes, "snapshot_lsn", bm.SnapshotLSN)
	return t, &bm, nil
}
