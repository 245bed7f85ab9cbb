package core

import (
	"context"
	"errors"
	"fmt"

	"blendhouse/internal/blobtier"
	"blendhouse/internal/exec"
	"blendhouse/internal/lsm"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

// BackupConfig wires BACKUP/RESTORE statements to their destinations.
type BackupConfig struct {
	// Key is the default encryption secret for backup destinations
	// (empty = plaintext backups). A statement-level WITH KEY takes
	// precedence.
	Key string
	// OpenDest resolves a destination/source string from the statement
	// to a blob store. nil opens an FSStore rooted at the path.
	OpenDest func(dest string) (storage.BlobStore, error)
}

// openBackupStore resolves a BACKUP/RESTORE target and applies
// encryption when a key is configured.
func (e *Engine) openBackupStore(dest, stmtKey string) (storage.BlobStore, error) {
	open := e.cfg.Backup.OpenDest
	if open == nil {
		open = func(path string) (storage.BlobStore, error) {
			return storage.NewFSStore(path)
		}
	}
	base, err := open(dest)
	if err != nil {
		return nil, err
	}
	key := stmtKey
	if key == "" {
		key = e.cfg.Backup.Key
	}
	if key == "" {
		return base, nil
	}
	return blobtier.NewEncrypting(base, blobtier.KeyFromString(key))
}

// backup executes BACKUP TABLE t TO 'dest': the table's current
// Version — its manifest, its segments and the WAL tail past its
// watermark — copied into the destination store while live writes
// continue (lsm.Table.Backup).
func (e *Engine) backup(ctx context.Context, s *sql.Backup) (*exec.Result, error) {
	t := e.Table(s.Table)
	if t == nil {
		return nil, unknownTableErr(s.Table)
	}
	dst, err := e.openBackupStore(s.Dest, s.Key)
	if err != nil {
		return nil, planErr(err)
	}
	bm, err := t.Backup(ctx, dst)
	if err != nil {
		return nil, err
	}
	return statusResult(fmt.Sprintf(
		"OK: backed up table %s to %q (%d blobs, %d bytes, snapshot_lsn=%d)",
		s.Table, s.Dest, len(bm.Blobs), bm.Bytes, bm.SnapshotLSN)), nil
}

// restore executes RESTORE TABLE t FROM 'src': lsm.Restore verifies
// and copies the backup's blobs into the engine's store and opens the
// table, replaying the copied WAL tail past the snapshot watermark
// (point-in-time recovery); the table is then registered in the
// catalog.
func (e *Engine) restore(ctx context.Context, s *sql.Restore) (*exec.Result, error) {
	if e.Table(s.Table) != nil {
		return nil, planErr(fmt.Errorf("table %q already exists; drop it before restoring", s.Table))
	}
	src, err := e.openBackupStore(s.Source, s.Key)
	if err != nil {
		return nil, planErr(err)
	}
	t, bm, err := lsm.Restore(ctx, src, e.cfg.Store, s.Table)
	if err != nil {
		if errors.Is(err, lsm.ErrNoBackup) || errors.Is(err, lsm.ErrRestoreExists) ||
			errors.Is(err, lsm.ErrCorruptBackup) || errors.Is(err, blobtier.ErrDecrypt) {
			return nil, planErr(err)
		}
		return nil, err
	}
	replayed := t.FlushedLSN() - bm.SnapshotLSN
	if err := e.registerTable(t); err != nil {
		return nil, err
	}
	return statusResult(fmt.Sprintf(
		"OK: restored table %s from %q (%d blobs, %d bytes, PITR replayed %d WAL records past lsn %d)",
		s.Table, s.Source, len(bm.Blobs), bm.Bytes, replayed, bm.SnapshotLSN)), nil
}
