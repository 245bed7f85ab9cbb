package storage

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// writeShared writes testBatch(n) with the vector column left out and
// its rows placed, as an index blob would hold them, behind pad bytes of
// something else in the sibling blob idx_embedding.bin.
func writeShared(t *testing.T, store BlobStore, n, blockRows, pad int) (*SegmentMeta, *RowBatch) {
	t.Helper()
	batch := testBatch(n)
	meta, err := WriteColumns(store, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, batch, blockRows, "embedding")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := encodeColumn(batch.Col("embedding"), blockRows)
	if err != nil {
		t.Fatal(err)
	}
	key := IndexKey("t", "seg1", "embedding")
	if err := store.Put(key, append(make([]byte, pad), rows...)); err != nil {
		t.Fatal(err)
	}
	meta.ShareColumn("embedding", key, int64(pad))
	if err := meta.Commit(store); err != nil {
		t.Fatal(err)
	}
	return meta, batch
}

// TestSharedColumnReads: a column whose granules live in a sibling blob
// reads exactly as one in col_<name>.bin does — whole, by rows, by
// granule, with the granules cut where encodeColumn cuts them — and no
// col_<name>.bin is written for it.
func TestSharedColumnReads(t *testing.T) {
	for name, store := range blobStores(t) {
		t.Run(name, func(t *testing.T) {
			const n, blockRows, pad = 25, 10, 333
			written, batch := writeShared(t, store, n, blockRows, pad)
			if _, err := store.Get(ColumnKey("t", "seg1", "embedding")); !IsNotFound(err) {
				t.Fatalf("col_embedding.bin exists beside the shared blob (err %v)", err)
			}
			// The same batch written the classic way: the reference.
			ref := NewMemStore()
			classic, err := WriteSegment(ref, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, batch, blockRows)
			if err != nil {
				t.Fatal(err)
			}
			r, err := OpenSegment(store, testSchema(), "t", "seg1")
			if err != nil {
				t.Fatal(err)
			}
			for which, m := range map[string]*SegmentMeta{"written": written, "read back": r.Meta} {
				cm, want := m.Columns[4], classic.Columns[4]
				if cm.Blob != "idx_embedding.bin" || len(cm.Blocks) != len(want.Blocks) {
					t.Fatalf("%s: blob %q, %d granules; want idx_embedding.bin, %d", which, cm.Blob, len(cm.Blocks), len(want.Blocks))
				}
				for i, b := range cm.Blocks {
					if w := want.Blocks[i]; b.Rows != w.Rows || b.Length != w.Length || b.Offset != w.Offset+pad {
						t.Fatalf("%s: granule %d = %+v, classic %+v shifted by %d", which, i, b, w, pad)
					}
				}
				for i := 0; i < 4; i++ {
					if m.Columns[i].Blob != "" {
						t.Fatalf("%s: column %s names blob %q", which, m.Columns[i].Name, m.Columns[i].Blob)
					}
				}
				if _, start, ok := m.Columns[4].Granule(24); !ok || start != 20 {
					t.Fatalf("%s: granule directory not built over the shared column", which)
				}
			}
			col, err := r.ReadColumn(context.Background(), "embedding")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(col.Vecs, batch.Col("embedding").Vecs) {
				t.Fatal("whole-column read of the shared column differs")
			}
			got, err := r.ReadRows(context.Background(), "embedding", []int{24, 0, 11, 11, 9})
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range []int{24, 0, 11, 11, 9} {
				if !reflect.DeepEqual(got.Vector(i), batch.Col("embedding").Vector(row)) {
					t.Fatalf("row %d of the shared column differs", row)
				}
			}
			cd, size, err := r.ReadGranule(nil, "embedding", 2)
			if err != nil || cd.Len() != 5 || size != 5*16 {
				t.Fatalf("granule 2: %d rows, %d bytes, %v", cd.Len(), size, err)
			}
			// The other columns are untouched by the sharing.
			ids, err := r.ReadColumn(context.Background(), "id")
			if err != nil || !reflect.DeepEqual(ids.Ints, batch.Col("id").Ints) {
				t.Fatalf("id column: %v", err)
			}
		})
	}
}

// TestSharedColumnReadFetchesSpan: a whole-column read of a shared
// column is one range read of the rows, not a Get of the index around
// them.
func TestSharedColumnReadFetchesSpan(t *testing.T) {
	rs := NewRemoteStore(NewMemStore(), RemoteConfig{})
	const n, pad = 25, 100_000
	writeShared(t, rs, n, 10, pad)
	r, err := OpenSegment(rs, testSchema(), "t", "seg1")
	if err != nil {
		t.Fatal(err)
	}
	before := rs.Snapshot()
	if _, err := r.ReadColumn(context.Background(), "embedding"); err != nil {
		t.Fatal(err)
	}
	after := rs.Snapshot()
	if gets, bytes := after.Gets-before.Gets, after.BytesRead-before.BytesRead; gets != 1 || bytes != n*16 {
		t.Fatalf("whole-column read of a shared column: %d reads, %d bytes; want 1 read of %d", gets, bytes, n*16)
	}
}

// TestCorruptGranuleAddresses: meta.json comes from the store. A blob
// name, offset or length that points outside the blob the column lives
// in is ErrCorruptGranule — when the meta is opened if the address is
// one no blob can have, from both read functions otherwise — in both
// layouts; never a panic, never bytes of something else decoded as rows.
func TestCorruptGranuleAddresses(t *testing.T) {
	const n, blockRows, pad = 25, 10, 64
	mutations := map[string]func(cm *ColumnMeta){
		"blob in another directory": func(cm *ColumnMeta) { cm.Blob = "../seg2/idx_embedding.bin" },
		"absolute blob":             func(cm *ColumnMeta) { cm.Blob = "/etc/passwd" },
		"negative offset":           func(cm *ColumnMeta) { cm.Blocks[0].Offset = -16 },
		"granules out of order":     func(cm *ColumnMeta) { cm.Blocks[2].Offset = cm.Blocks[0].Offset },
		"offset past the end":       func(cm *ColumnMeta) { cm.Blocks[2].Offset = 1 << 40 },
		"offset near MaxInt64":      func(cm *ColumnMeta) { cm.Blocks[2].Offset = 1<<63 - 8 },
		"negative length":           func(cm *ColumnMeta) { cm.Blocks[1].Length = -1 },
		"length past the end":       func(cm *ColumnMeta) { cm.Blocks[2].Length = 1 << 20 },
		"length short of the rows":  func(cm *ColumnMeta) { cm.Blocks[1].Length = 16 },
		"last granule runs off":     func(cm *ColumnMeta) { cm.Blocks[2].Offset += 16 },
	}
	for _, layout := range []string{"shared", "classic"} {
		for name, mutate := range mutations {
			t.Run(layout+"/"+name, func(t *testing.T) {
				store := NewMemStore()
				if layout == "shared" {
					writeShared(t, store, n, blockRows, pad)
				} else if _, err := WriteSegment(store, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, testBatch(n), blockRows); err != nil {
					t.Fatal(err)
				}
				raw, err := store.Get(MetaKey("t", "seg1"))
				if err != nil {
					t.Fatal(err)
				}
				var m SegmentMeta
				if err := json.Unmarshal(raw, &m); err != nil {
					t.Fatal(err)
				}
				mutate(&m.Columns[4])
				if raw, err = json.Marshal(&m); err != nil {
					t.Fatal(err)
				}
				if err := store.Put(MetaKey("t", "seg1"), raw); err != nil {
					t.Fatal(err)
				}
				r, err := OpenSegment(store, testSchema(), "t", "seg1")
				if err != nil {
					if !errors.Is(err, ErrCorruptGranule) {
						t.Fatalf("OpenSegment: %v, want ErrCorruptGranule", err)
					}
					return
				}
				if _, err := r.ReadColumn(context.Background(), "embedding"); !errors.Is(err, ErrCorruptGranule) {
					t.Errorf("ReadColumn: %v, want ErrCorruptGranule", err)
				}
				failed := false
				for block := range m.Columns[4].Blocks {
					if _, _, err := r.ReadGranule(nil, "embedding", block); err != nil {
						failed = true
						if !errors.Is(err, ErrCorruptGranule) {
							t.Errorf("ReadGranule(%d): %v, want ErrCorruptGranule", block, err)
						}
					}
				}
				if !failed {
					t.Error("every granule of a corrupt column read fine")
				}
			})
		}
	}
}
