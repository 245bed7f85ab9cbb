package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"blendhouse/internal/blobtier"
	"blendhouse/internal/storage"
	"blendhouse/pkg/api"
)

// destMap is a BackupConfig.OpenDest that resolves destination strings
// to shared in-memory stores, so two engines can exchange backups.
type destMap struct {
	stores map[string]*storage.MemStore
}

func newDestMap() *destMap { return &destMap{stores: map[string]*storage.MemStore{}} }

func (d *destMap) open(dest string) (storage.BlobStore, error) {
	if s, ok := d.stores[dest]; ok {
		return s, nil
	}
	s := storage.NewMemStore()
	d.stores[dest] = s
	return s, nil
}

// queryFingerprint renders a deterministic full-table scan for
// engine-to-engine comparison.
func queryFingerprint(t *testing.T, e *Engine) []string {
	t.Helper()
	res := mustExec(t, e, "SELECT id, label, score FROM images WHERE id >= 0 ORDER BY id LIMIT 10000")
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, fmt.Sprintf("%v|%v|%v", row[0], row[1], row[2]))
	}
	return out
}

// TestSQLBackupRestorePITR: BACKUP on a live engine with unflushed
// acked rows, RESTORE on a fresh engine — the WAL tail past the
// snapshot watermark replays, and both engines answer identically.
func TestSQLBackupRestorePITR(t *testing.T) {
	dests := newDestMap()
	e1 := newEngine(t, Config{WAL: noFlushWAL(), Backup: BackupConfig{OpenDest: dests.open}})
	ds := seedImages(t, e1)
	// Flush half the ingest to establish a watermark, then add rows
	// that live only in the WAL + memtable: the PITR payload.
	if err := e1.Table("images").FlushWAL(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustExec(t, e1, fmt.Sprintf("INSERT INTO images VALUES (%d, 'tail', %d, 0.5, %s)",
			10000+i, 2000+i, vecLit(ds.Vectors.Row(i))))
	}

	res := mustExec(t, e1, "BACKUP TABLE images TO 'bk1'")
	status := res.Rows[0][0].(string)
	if !strings.Contains(status, "backed up table images") {
		t.Fatalf("backup status = %q", status)
	}

	e2 := newEngine(t, Config{WAL: noFlushWAL(), Backup: BackupConfig{OpenDest: dests.open}})
	res = mustExec(t, e2, "RESTORE TABLE images FROM 'bk1'")
	status = res.Rows[0][0].(string)
	if !strings.Contains(status, "restored table images") || !strings.Contains(status, "PITR replayed") {
		t.Fatalf("restore status = %q", status)
	}
	// The WAL tail held 20 acked-but-unflushed inserts; the status line
	// reports a non-zero replay.
	if strings.Contains(status, "replayed 0 WAL records") {
		t.Fatalf("no PITR replay happened: %q", status)
	}

	want, got := queryFingerprint(t, e1), queryFingerprint(t, e2)
	if len(want) != len(got) {
		t.Fatalf("row counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d differs after restore:\n src %s\n dst %s", i, want[i], got[i])
		}
	}

	// Restoring over a live table is refused as a plan error.
	if _, err := e2.Exec(context.Background(), "RESTORE TABLE images FROM 'bk1'"); !errors.Is(err, api.ErrPlan) {
		t.Fatalf("restore over existing table: err = %v, want ErrPlan", err)
	}
	e1.Close()
	e2.Close()
}

// TestSQLBackupEncrypted: WITH KEY encrypts the destination; restoring
// needs the same key, and a wrong key is a user-addressable error, not
// a corrupted table.
func TestSQLBackupEncrypted(t *testing.T) {
	dests := newDestMap()
	e1 := newEngine(t, Config{Backup: BackupConfig{OpenDest: dests.open}})
	seedImages(t, e1)
	mustExec(t, e1, "BACKUP TABLE images TO 'vault' WITH KEY 'open sesame'")

	// The raw destination store holds no plaintext manifest.
	raw := dests.stores["vault"]
	if blob, err := raw.Get(blobtier.MarkerKey("images")); err != nil || strings.Contains(string(blob), "snapshot_lsn") {
		t.Fatalf("marker not encrypted at rest (err=%v)", err)
	}

	e2 := newEngine(t, Config{Backup: BackupConfig{OpenDest: dests.open}})
	if _, err := e2.Exec(context.Background(), "RESTORE TABLE images FROM 'vault' WITH KEY 'wrong'"); !errors.Is(err, api.ErrPlan) {
		t.Fatalf("wrong key: err = %v, want ErrPlan", err)
	}
	res := mustExec(t, e2, "RESTORE TABLE images FROM 'vault' WITH KEY 'open sesame'")
	if !strings.Contains(res.Rows[0][0].(string), "restored table images") {
		t.Fatalf("restore status = %q", res.Rows[0][0])
	}
	want, got := queryFingerprint(t, e1), queryFingerprint(t, e2)
	if len(want) != len(got) {
		t.Fatalf("row counts differ: %d vs %d", len(want), len(got))
	}
	e1.Close()
	e2.Close()
}

// TestSQLBackupUnknownTable: BACKUP of a missing table is the standard
// unknown-table error.
func TestSQLBackupUnknownTable(t *testing.T) {
	e := newEngine(t, Config{})
	if _, err := e.Exec(context.Background(), "BACKUP TABLE nope TO 'x'"); !errors.Is(err, api.ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	e.Close()
}

// TestTieredEngineMetrics: an engine configured with the blob-cache
// tier serves repeat segment reads from memory and surfaces the
// bh.storage.tier.* metrics in SHOW METRICS.
func TestTieredEngineMetrics(t *testing.T) {
	e := newEngine(t, Config{Tier: &blobtier.Config{MemBytes: 64 << 20}})
	ds := seedImages(t, e)
	q := vecLit(ds.Queries.Row(0))
	for i := 0; i < 3; i++ {
		mustExec(t, e, fmt.Sprintf(
			"SELECT id, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10", q))
	}
	st := e.tier.TierStats()
	if st.MemEntries == 0 || st.MemBytes == 0 {
		t.Fatalf("tier never admitted a blob: %+v", st)
	}
	res := mustExec(t, e, "SHOW METRICS")
	found := map[string]bool{}
	for _, row := range res.Rows {
		name := row[0].(string)
		if strings.HasPrefix(name, "bh.storage.tier.") || strings.HasPrefix(name, "bh.backup.") {
			found[name] = true
		}
	}
	for _, want := range []string{
		"bh.storage.tier.mem_bytes", "bh.storage.tier.mem_hits",
		"bh.storage.tier.misses", "bh.storage.tier.declined", "bh.backup.runs",
	} {
		if !found[want] {
			t.Fatalf("SHOW METRICS missing %s (got tier keys %v)", want, found)
		}
	}
	e.Close()
}
