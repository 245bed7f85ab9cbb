package lsm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/storage"
)

// --- flushed bytes -------------------------------------------------------------
//
// testdata/golden_flush_sha256.json holds the SHA-256 of every blob a
// deterministic WAL ingest plus one FlushWAL leaves in the store, as
// written by the flush that copied each memtable row twice before
// writing it. Four tables: unpartitioned (300 rows, so one segment is
// cut from the middle of the memtable), PARTITION BY label (three
// partitions), CLUSTER BY … BUCKETS, and one with rows deleted in its
// memtable — the first three flush the memtable's rows in place, the
// last compacts its live rows into a new batch. The table keeps its
// segments in a map, so the manifest is hashed with its segment list
// sorted. Every segment there is an HNSW graph: the goldens were
// written before auto-index gave a segment under
// autoindex.MinIndexRows a flat index, and they keep that rule off.
//
// testdata/golden_flush_exact_sha256.json pins the same ingest with the
// rule on, where every segment is flat.
//
// testdata/golden_flush_manifest_sha256.json is laid over both: the four
// manifests as written once the table options stopped carrying
// pipelined_build and tune_on_compaction (the column write always runs
// beside the index build, and compaction builds with the rules). Every
// other blob keeps the hash its golden gives it.

// flushGoldenTables shapes each golden table's options by name; the
// table named "deletes" also deletes rows from its memtable.
func flushGoldenTables() map[string]func(*Options) {
	return map[string]func(*Options){
		"plain":     func(*Options) {},
		"parted":    func(o *Options) { o.PartitionBy = []string{"label"} },
		"clustered": func(o *Options) { o.ClusterBuckets = 3 },
		"deletes":   func(*Options) {},
	}
}

// flushedBlobHashes ingests 300 rows through the WAL into each golden
// table, flushes once, and returns the hex SHA-256 of every blob in
// the store by key. everySegment keeps the tables' HNSW type on
// segments of every size.
func flushedBlobHashes(t *testing.T, everySegment bool) map[string]string {
	t.Helper()
	ctx := context.Background()
	ds := dataset.Small(lN, lDim, 3)
	out := map[string]string{}
	for name, shape := range flushGoldenTables() {
		store := storage.NewMemStore()
		opts := testOptions(name)
		opts.AutoIndex = true
		opts.indexEverySegment = everySegment
		shape(&opts)
		tab, err := Create(store, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.EnableWAL(walTestConfig()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := tab.InsertCtx(ctx, fillBatch(t, opts, ds, i*100, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if name == "deletes" {
			if n, err := tab.DeleteByKeyCtx(ctx, "id", []int64{3, 150, 299}); err != nil || n != 3 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
		}
		if err := tab.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		if err := tab.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		keys, err := store.List("")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			blob, err := store.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if k == manifestKey(name) {
				var m manifest
				if err := json.Unmarshal(blob, &m); err != nil {
					t.Fatal(err)
				}
				sort.Strings(m.Segments)
				if blob, err = json.Marshal(&m); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(blob)
			out[k] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

func TestFlushBytesUnchanged(t *testing.T) {
	// The HNSW graphs in these blobs hang on float comparisons: amd64
	// bytes, like the golden build hashes.
	if runtime.GOARCH != "amd64" {
		t.Skip("golden flush hashes are amd64 bytes")
	}
	checkFlushGolden(t, "testdata/golden_flush_sha256.json", flushedBlobHashes(t, true))
}

// TestFlushExactBytesUnchanged: with every segment flat, no graph search
// decides a byte of the flushed store (the index blob is the rows as
// given), so the golden holds on every GOARCH.
func TestFlushExactBytesUnchanged(t *testing.T) {
	checkFlushGolden(t, "testdata/golden_flush_exact_sha256.json", flushedBlobHashes(t, false))
}

// checkFlushGolden compares the hashes of a flushed store with a golden
// file under the manifest overlay, key for key in both directions.
func checkFlushGolden(t *testing.T, golden string, got map[string]string) {
	t.Helper()
	want := readHashes(t, golden)
	for k, sum := range readHashes(t, "testdata/golden_flush_manifest_sha256.json") {
		if want[k] == "" {
			t.Fatalf("%s: in the manifest overlay but not in %s", k, golden)
		}
		want[k] = sum
	}
	for k, sum := range want {
		if got[k] != sum {
			t.Errorf("%s: a flush of the golden ingest writes sha256 %q, golden %s", k, got[k], sum)
		}
	}
	for k := range got {
		if want[k] == "" {
			t.Errorf("%s: written by the flush but not in the golden file", k)
		}
	}
}

// readHashes reads a golden file of blob key -> hex SHA-256.
func readHashes(t *testing.T, golden string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var hashes map[string]string
	if err := json.Unmarshal(raw, &hashes); err != nil {
		t.Fatal(err)
	}
	return hashes
}
