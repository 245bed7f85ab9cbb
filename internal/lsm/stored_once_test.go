package lsm

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	_ "blendhouse/internal/index/diskann"
	"blendhouse/internal/storage"
)

// lcgBatch fills n rows of opts' (id, v) schema from a fixed LCG stream.
func lcgBatch(opts Options, n int, seed uint32) *storage.RowBatch {
	b := storage.NewRowBatch(opts.Schema)
	dim := opts.Schema.VectorColumn().Dim
	for i := 0; i < n; i++ {
		b.Col("id").Ints = append(b.Col("id").Ints, int64(i))
		for d := 0; d < dim; d++ {
			seed = seed*1664525 + 1013904223
			b.Col("v").Vecs = append(b.Col("v").Vecs, float32(seed>>8)/(1<<24))
		}
	}
	return b
}

func idVecOptions(name string, typ index.Type, dim int) Options {
	return Options{
		Name: name,
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "v", Type: storage.VectorType, Dim: dim},
		}},
		IndexColumn: "v", IndexType: typ, IndexParams: index.BuildParams{M: 6, Nlist: 8, PQM: 4},
		SegmentRows: 1000, BlockRows: 64, Seed: 7,
	}
}

func storedBytes(t *testing.T, store storage.BlobStore) (total int64, keys []string) {
	t.Helper()
	keys, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		n, err := store.Size(k)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total, keys
}

// TestVectorsStoredOnce: a table whose index type keeps its rows holds
// every vector once. 2 000 x 64-d, ids beside them: the store is within
// a quarter of the user's bytes (it was 2.2x with col_v.bin; what is
// left over 1.0 is the graph, which at M=6 is a fifth of the payload —
// M is the graph's business, not this test's) and no col_v.bin exists.
func TestVectorsStoredOnce(t *testing.T) {
	for _, typ := range []index.Type{index.HNSW, index.Flat} {
		t.Run(string(typ), func(t *testing.T) {
			store := storage.NewMemStore()
			opts := idVecOptions("once", typ, 64)
			tab, err := Create(store, opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			ingest(t, tab, lcgBatch(opts, n, 1))
			if _, err := tab.CompactAll(CompactionPolicy{MinSegments: 2}); err != nil {
				t.Fatal(err)
			}
			stored, keys := storedBytes(t, store)
			for _, k := range keys {
				if strings.Contains(k, "col_v.bin") {
					t.Fatalf("%s exists: the vectors are stored twice", k)
				}
			}
			user := int64(n * (8 + 4*64))
			if amp := float64(stored) / float64(user); amp > 1.25 {
				t.Fatalf("stored %d bytes for %d user bytes: %.3fx, want <= 1.25x", stored, user, amp)
			}
		})
	}
}

// TestIndexRowRangeIsTheColumn: for every index type, either the index
// says where its blob holds the rows and those bytes are the column's
// encoding, byte for byte, with the granules cut where the column
// writer cuts them — or it does not say, and col_<v>.bin is written as
// before.
func TestIndexRowRangeIsTheColumn(t *testing.T) {
	shares := map[index.Type]bool{index.HNSW: true, index.Flat: true}
	for _, typ := range []index.Type{index.Flat, index.HNSW, index.HNSWSQ, index.IVFFlat, index.IVFPQ, index.IVFPQFS, index.DiskANN} {
		t.Run(string(typ), func(t *testing.T) {
			store := storage.NewMemStore()
			opts := idVecOptions("rr", typ, 16)
			tab, err := Create(store, opts)
			if err != nil {
				t.Fatal(err)
			}
			batch := lcgBatch(opts, 300, 9)
			ingest(t, tab, batch)
			// The same rows written by the column writer alone.
			ref := storage.NewMemStore()
			classic, err := storage.WriteSegment(ref, storage.SegmentMeta{Name: "s", Table: "rr", Bucket: -1}, batch, opts.BlockRows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Get(storage.ColumnKey("rr", "s", "v"))
			if err != nil {
				t.Fatal(err)
			}
			m := tab.Segments()[0]
			cm := m.Columns[1]
			col, colErr := store.Get(storage.ColumnKey("rr", m.Name, "v"))
			idx, err := store.Get(storage.IndexKey("rr", m.Name, "v"))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := tab.OpenIndex(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			var off, length int64
			keeps := false
			if rk, ok := ix.(index.RowKeeper); ok {
				off, length, keeps = rk.SavedRows(int64(len(idx)))
			}
			if keeps != shares[typ] {
				t.Fatalf("index keeps its rows: %t, want %t", keeps, shares[typ])
			}
			if !keeps {
				if colErr != nil || !bytes.Equal(col, want) || cm.Blob != "" {
					t.Fatalf("col_v.bin must be written as before (err %v, blob field %q)", colErr, cm.Blob)
				}
				return
			}
			if !storage.IsNotFound(colErr) {
				t.Fatalf("col_v.bin written beside an index that is the column (err %v)", colErr)
			}
			if off < 0 || off+length != int64(len(idx)) || !bytes.Equal(idx[off:], want) {
				t.Fatalf("reported rows [%d,+%d) of a %d-byte blob are not the column's encoding", off, length, len(idx))
			}
			if cm.Blob != "idx_v.bin" || len(cm.Blocks) != len(classic.Columns[1].Blocks) {
				t.Fatalf("meta: blob %q, %d granules, want idx_v.bin, %d", cm.Blob, len(cm.Blocks), len(classic.Columns[1].Blocks))
			}
			for i, b := range cm.Blocks {
				if w := classic.Columns[1].Blocks[i]; b.Rows != w.Rows || b.Length != w.Length || b.Offset != off+w.Offset {
					t.Fatalf("granule %d = %+v, column writer's %+v at %d", i, b, w, off)
				}
			}
			// A loaded index answers the same; an empty one says so up front.
			empty, err := index.New(typ, tab.buildParamsFor(typ, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, n, ok := empty.(index.RowKeeper).SavedRows(0); !ok || n != 0 {
				t.Fatalf("empty index: %d bytes, %t", n, ok)
			}
		})
	}
}

// TestMetaIsTheLastBlob: a segment's meta.json names its index, so it
// is written after it. A flush whose index Put, or column Put, fails
// leaves no meta.json behind and the manifest never names the segment.
func TestMetaIsTheLastBlob(t *testing.T) {
	for _, failing := range []string{"/idx_v.bin", "/col_id.bin"} {
		t.Run(failing[1:], func(t *testing.T) {
			mem := storage.NewMemStore()
			fs := storage.NewFaultStore(mem, storage.FaultConfig{Seed: 1, Rules: []storage.FaultRule{
				{Op: storage.FaultOpPut, KeySubstr: failing, Permanent: true},
			}})
			opts := idVecOptions("ml", index.HNSWSQ, 16) // a type that writes col_v.bin too
			tab, err := Create(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.EnableWAL(walTestConfig()); err != nil {
				t.Fatal(err)
			}
			if err := tab.Insert(context.Background(), lcgBatch(opts, 100, 3)); err != nil {
				t.Fatal(err)
			}
			if err := tab.FlushWAL(); err == nil {
				t.Fatal("flush succeeded although a blob of its segment was refused")
			}
			if err := tab.CloseWAL(); err == nil {
				t.Fatal("closing flush succeeded although a blob of its segment was refused")
			}
			keys, err := mem.List("")
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if strings.HasSuffix(k, "/meta.json") {
					t.Fatalf("%s describes a segment whose %s was never written (store: %v)", k, failing[1:], keys)
				}
			}
			if tab.SegmentCount() != 0 {
				t.Fatal("the failed segment is live")
			}
			var m manifest
			if blob, err := mem.Get(manifestKey("ml")); err != nil {
				t.Fatal(err)
			} else if err := json.Unmarshal(blob, &m); err != nil {
				t.Fatal(err)
			}
			if len(m.Segments) != 0 {
				t.Fatalf("the manifest names the failed segment: %v", m.Segments)
			}
			// The rows were acknowledged, so the log still holds them:
			// a reopen over a healthy store replays them into a segment.
			reopened, err := Open(mem, "ml")
			if err != nil {
				t.Fatal(err)
			}
			if reopened.SegmentCount() != 1 || reopened.Rows() != 100 {
				t.Fatalf("reopen holds %d rows in %d segments, want the 100 logged rows", reopened.Rows(), reopened.SegmentCount())
			}
		})
	}
}

// --- golden table ------------------------------------------------------------
//
// testdata/golden_table_pr22.json is a whole table as the commit of PR 22
// wrote it — manifest, two HNSW segments with col_embedding.bin beside
// idx_embedding.bin, delete bitmaps — with what that build answered. It
// stands for every store written before the index blob became the
// vector column: it must keep opening, keep answering the same, and
// compact into the current layout. Append-only, like every golden file.

type goldenTable struct {
	Table   string  `json:"table"`
	Deleted []int64 `json:"deleted"`
	Queries []struct {
		Q        []float32 `json:"q"`
		K        int       `json:"k"`
		ExactIDs []int64   `json:"exact_ids"`
		ANN      map[string]struct {
			Rows     []int64  `json:"rows"`
			DistBits []uint32 `json:"dist_bits"`
		} `json:"ann"`
	} `json:"queries"`
	Blobs map[string]string `json:"blobs_b64"`
}

// goldenL2 is the golden file's own distance: float64, no fused
// multiply-add, so that exact_ids mean the same on every host.
func goldenL2(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return s
}

// tableRows reads every live row (id -> vector) through the segment
// readers, the path SELECT and compaction use.
func tableRows(t *testing.T, tab *Table) map[int64][]float32 {
	t.Helper()
	out := map[int64][]float32{}
	for _, s := range liveSegments(tab) {
		rd, m := s.Reader, s.Meta
		ids, err := rd.ReadColumn(context.Background(), "id")
		if err != nil {
			t.Fatal(err)
		}
		vecs, err := rd.ReadColumn(context.Background(), "embedding")
		if err != nil {
			t.Fatal(err)
		}
		// Granule-wise too: both read functions see the same bytes.
		byRows, err := rd.ReadRows(context.Background(), "embedding", []int{m.Rows - 1, 0, m.Rows / 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range []int{m.Rows - 1, 0, m.Rows / 2} {
			if !reflect.DeepEqual(byRows.Vector(i), vecs.Vector(r)) {
				t.Fatalf("segment %s row %d: ReadRows and ReadColumn disagree", m.Name, r)
			}
		}
		bm := s.Deletes
		for r := 0; r < m.Rows; r++ {
			if bm == nil || !bm.Test(r) {
				out[ids.Ints[r]] = vecs.Vector(r)
			}
		}
	}
	return out
}

func exactTopK(rows map[int64][]float32, q []float32, k int) []int64 {
	ids := make([]int64, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := goldenL2(q, rows[ids[a]]), goldenL2(q, rows[ids[b]])
		return da < db || (da == db && ids[a] < ids[b])
	})
	return ids[:k]
}

func TestGoldenTableFromPR22(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_table_pr22.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenTable
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	store := storage.NewMemStore()
	// What the old build stored as the column, decoded by hand: raw
	// little-endian float32 rows, no header.
	want := map[int64][]float32{}
	dead := map[int64]bool{}
	for _, id := range g.Deleted {
		dead[id] = true
	}
	for key, b64 := range g.Blobs {
		blob, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, blob); err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(key, "/col_embedding.bin") {
			seg := int64(0)
			if strings.Contains(key, "seg00000001") {
				seg = 1
			}
			for r := 0; r < len(blob)/(4*lDim); r++ {
				v := make([]float32, lDim)
				for d := range v {
					v[d] = math.Float32frombits(binary.LittleEndian.Uint32(blob[4*(r*lDim+d):]))
				}
				if id := seg*100 + int64(r); !dead[id] {
					want[id] = v
				}
			}
		}
	}
	if len(want) != 200-len(g.Deleted) {
		t.Fatalf("golden file holds %d live rows", len(want))
	}
	tab, err := Open(store, g.Table)
	if err != nil {
		t.Fatalf("a table written by PR 22 no longer opens: %v", err)
	}
	if tab.SegmentCount() != 2 {
		t.Fatalf("opened %d segments", tab.SegmentCount())
	}
	for _, m := range tab.Segments() {
		if m.Columns[3].Blob != "" {
			t.Fatalf("old-layout segment %s reads its vectors from %q", m.Name, m.Columns[3].Blob)
		}
	}
	check := func(stage string) {
		t.Helper()
		rows := tableRows(t, tab)
		if len(rows) != len(want) {
			t.Fatalf("%s: %d live rows, want %d", stage, len(rows), len(want))
		}
		for id, v := range want {
			got := rows[id]
			for d := range v {
				if got == nil || math.Float32bits(got[d]) != math.Float32bits(v[d]) {
					t.Fatalf("%s: id %d differs from what PR 22 stored", stage, id)
				}
			}
		}
		for qi, gq := range g.Queries {
			if got := exactTopK(rows, gq.Q, gq.K); !reflect.DeepEqual(got, gq.ExactIDs) {
				t.Fatalf("%s: query %d exact top-%d = %v, golden %v", stage, qi, gq.K, got, gq.ExactIDs)
			}
		}
	}
	check("opened")
	// The old index blobs answer what the old build answered.
	for qi, gq := range g.Queries {
		for seg, ann := range gq.ANN {
			ix, err := tab.OpenIndex(seg)
			if err != nil {
				t.Fatal(err)
			}
			bm := tab.current().Segment(seg).Deletes
			if bm == nil {
				t.Fatalf("segment %s opened without its delete bitmap", seg)
			}
			filter := bitset.New(100)
			for r := 0; r < 100; r++ {
				if !bm.Test(r) {
					filter.Set(r)
				}
			}
			res, err := ix.SearchWithFilter(gq.Q, gq.K, filter, index.SearchParams{Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(ann.Rows) {
				t.Fatalf("query %d on %s: %d hits, golden %d", qi, seg, len(res), len(ann.Rows))
			}
			for i, c := range res {
				// Distances are bit-exact where the golden was written (amd64
				// kernels); elsewhere the ranking is what is pinned.
				if c.ID != ann.Rows[i] || (runtime.GOARCH == "amd64" && math.Float32bits(c.Dist) != ann.DistBits[i]) {
					t.Fatalf("query %d on %s rank %d: row %d dist %x, golden row %d dist %x", qi, seg, i, c.ID, math.Float32bits(c.Dist), ann.Rows[i], ann.DistBits[i])
				}
			}
		}
	}
	// Compaction carries the table into the current layout.
	if n, err := tab.CompactAll(CompactionPolicy{MinSegments: 2}); err != nil || n != 2 {
		t.Fatalf("compacted %d segments: %v", n, err)
	}
	if tab.SegmentCount() != 1 {
		t.Fatalf("%d segments after compaction", tab.SegmentCount())
	}
	m := tab.Segments()[0]
	if m.Columns[3].Blob != "idx_embedding.bin" {
		t.Fatalf("compaction output reads its vectors from %q", m.Columns[3].Blob)
	}
	_, keys := storedBytes(t, store)
	for _, k := range keys {
		if strings.Contains(k, "col_embedding.bin") {
			t.Fatalf("%s survives compaction", k)
		}
	}
	check("compacted")
	// And a reopen of the compacted table reads the new layout cold.
	if tab, err = Open(store, g.Table); err != nil {
		t.Fatal(err)
	}
	check("compacted and reopened")
	// The fresh index over the merged rows finds the exact neighbours.
	ix, err := tab.OpenIndex(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := (&storage.SegmentReader{Store: store, Meta: m, Schema: tab.Schema()}).ReadColumn(context.Background(), "id")
	if err != nil {
		t.Fatal(err)
	}
	for qi, gq := range g.Queries {
		res, err := ix.SearchWithFilter(gq.Q, gq.K, nil, index.SearchParams{Ef: 200})
		if err != nil {
			t.Fatal(err)
		}
		hit := 0
		for _, c := range res {
			for _, id := range gq.ExactIDs {
				if ids.Ints[c.ID] == id {
					hit++
				}
			}
		}
		if hit < gq.K-1 {
			t.Fatalf("query %d: rebuilt index finds %d of the %d exact neighbours", qi, hit, gq.K)
		}
	}
}
