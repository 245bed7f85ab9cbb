package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// soakWorkload drives one full engine lifecycle — bulk ingest, realtime
// inserts and deletes through the WAL, an explicit flush, compaction,
// then a battery of vector/hybrid/range queries — and fingerprints
// every observable result. Two runs with identical seeds must produce
// identical fingerprints regardless of what the storage layer throws.
func soakWorkload(t *testing.T, e *Engine) []string {
	t.Helper()
	ds := dataset.Small(eN, eDim, 17)
	labels := []string{"animal", "city", "food"}
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE images (
		id UInt64,
		label String,
		published_time DateTime,
		score Float64,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE HNSW('DIM=%d','M=8','EF_CONSTRUCTION=64','SEED=3')
	) ORDER BY published_time`, eDim))

	insert := func(start, n int) {
		var sb strings.Builder
		sb.WriteString("INSERT INTO images VALUES ")
		for i := start; i < start+n; i++ {
			if i > start {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, '%s', %d, %g, %s)",
				i, labels[i%3], 1000+i, float64(i)/eN, vecLit(ds.Vectors.Row(i)))
		}
		mustExec(t, e, sb.String())
	}

	// Bulk ingest, then realtime churn: deletes against both flushed
	// and memtable-resident rows, interleaved with more inserts.
	insert(0, 400)
	mustExec(t, e, `DELETE FROM images WHERE id IN (0, 7, 14, 21, 28, 35, 42, 49)`)
	insert(400, 100)
	mustExec(t, e, `DELETE FROM images WHERE id IN (70, 401, 403)`)
	if err := e.Table("images").FlushWAL(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mustExec(t, e, `DELETE FROM images WHERE id = 450`)
	mustExec(t, e, `OPTIMIZE TABLE images`)

	var out []string
	out = append(out, fmt.Sprintf("rows=%d deleted=%d segments=%d",
		e.Table("images").Rows(), e.Table("images").DeletedRows(), e.Table("images").SegmentCount()))
	for qi := 0; qi < 5; qi++ {
		res := mustExec(t, e, fmt.Sprintf(
			`SELECT id, label, dist FROM images ORDER BY L2Distance(embedding, %s) AS dist LIMIT 20 SETTINGS ef_search=128`,
			vecLit(ds.Queries.Row(qi))))
		out = append(out, fmt.Sprintf("q%d: %v", qi, res.Rows))
	}
	hybrid := mustExec(t, e, fmt.Sprintf(
		`SELECT id, score, dist FROM images WHERE label = 'animal' AND published_time >= 1100
		 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10 SETTINGS ef_search=128`,
		vecLit(ds.Queries.Row(5))))
	out = append(out, fmt.Sprintf("hybrid: %v", hybrid.Rows))
	return out
}

func soakWAL() *lsm.WALConfig {
	// Flushes only when the test says so, keeping the two runs' segment
	// layouts aligned.
	return &lsm.WALConfig{MaxMemRows: 1 << 20, FlushInterval: time.Hour}
}

func metricsMap() map[string]int64 {
	m := map[string]int64{}
	for _, kv := range obs.Default().Snapshot() {
		m[kv.Key] = kv.Value
	}
	return m
}

// TestChaosSoakZeroLossByteIdentical is the acceptance test for the
// fault-tolerance layer: the full ingest→realtime-DML→flush→compact→
// query cycle over storage with a seeded ~5% transient failure rate
// must acknowledge zero lost writes and return byte-identical query
// results vs the same workload on fault-free storage.
func TestChaosSoakZeroLossByteIdentical(t *testing.T) {
	clean := newEngine(t, Config{Store: storage.NewMemStore(), WAL: soakWAL()})
	want := soakWorkload(t, clean)
	clean.Close()

	before := metricsMap()
	chaotic := newEngine(t, Config{Store: storage.NewMemStore(), WAL: soakWAL(), Chaos: true, Seed: 11})
	got := soakWorkload(t, chaotic)

	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			t.Fatalf("chaos run diverged at checkpoint %d:\n want %s\n  got %s", i, want[i], got[i])
		}
	}

	// The run must actually have been exercised by faults, and the
	// retry layer must have absorbed them (visible through SHOW
	// METRICS, same registry).
	after := metricsMap()
	if d := after["bh.storage.faults_injected"] - before["bh.storage.faults_injected"]; d == 0 {
		t.Fatal("chaos soak injected zero faults — the injector is not wired under the engine")
	}
	if d := after["bh.storage.retries"] - before["bh.storage.retries"]; d == 0 {
		t.Fatal("chaos soak retried nothing — the retry layer is not wired under the engine")
	}
	res := mustExec(t, chaotic, "SHOW METRICS")
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r[0].(string)] = true
	}
	for _, key := range []string{"bh.storage.retries", "bh.storage.breaker_state", "bh.storage.faults_injected"} {
		if !seen[key] {
			t.Fatalf("SHOW METRICS missing %s", key)
		}
	}
	chaotic.Close()
}
