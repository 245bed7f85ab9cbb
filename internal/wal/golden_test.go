package wal

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"blendhouse/internal/storage"
)

// goldenWALPath holds one blob as EncodeBlob wrote it before the
// decoder moved onto storage's column decoder: two inserts over every
// column type (edge values included) around a delete record. Like every
// golden file it is append-only: a format change adds a file.
const goldenWALPath = "testdata/golden_wal_v1.bin"

func goldenSchema() *storage.Schema {
	return &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "id", Type: storage.Int64Type},
		{Name: "ts", Type: storage.DateTimeType},
		{Name: "score", Type: storage.Float64Type},
		{Name: "label", Type: storage.StringType},
		{Name: "v", Type: storage.VectorType, Dim: 3},
	}}
}

func goldenRecords() []*Record {
	schema := goldenSchema()
	ins := func(ids, ts []int64, scores []float64, labels []string, vecs []float32) *storage.RowBatch {
		b := storage.NewRowBatch(schema)
		b.Col("id").Ints, b.Col("ts").Ints = ids, ts
		b.Col("score").Floats, b.Col("label").Strs, b.Col("v").Vecs = scores, labels, vecs
		return b
	}
	return []*Record{
		{LSN: 7, Type: RecInsert, Batch: ins(
			[]int64{1, -2, math.MaxInt64},
			[]int64{1700000000, 0, math.MinInt64},
			[]float64{0.5, -1e300, math.Inf(1)},
			[]string{"a", "", "héllo, wörld"},
			[]float32{1, 2, 3, -0.25, 0, 1e-30, math.MaxFloat32, -1, 0.125})},
		{LSN: 8, Type: RecDelete, DeleteCol: "id", DeleteKeys: []int64{-2, 99}},
		{LSN: 9, Type: RecInsert, Batch: ins(
			[]int64{4}, []int64{5}, []float64{6.25}, []string{"last"}, []float32{7, 8, 9})},
	}
}

func TestGoldenWALBlobDecodes(t *testing.T) {
	blob, err := os.ReadFile(goldenWALPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlob(goldenSchema(), blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenRecords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden blob decodes to\n%+v\nwant\n%+v", got, want)
	}
	again, err := EncodeBlob(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoding the golden records changes their bytes")
	}
}

// TestGoldenWALPayloadCorruptionRejected cuts every record payload of
// the golden blob short at each length and adds a trailing byte to it:
// the payload decoder rejects each one (the checksum is not involved),
// and DecodeBlob rejects a flip of any payload bit.
func TestGoldenWALPayloadCorruptionRejected(t *testing.T) {
	blob, err := os.ReadFile(goldenWALPath)
	if err != nil {
		t.Fatal(err)
	}
	schema := goldenSchema()
	for off := 5; off < len(blob); {
		typ := RecordType(blob[off+8])
		plen := int(uint32(blob[off+9]) | uint32(blob[off+10])<<8 | uint32(blob[off+11])<<16 | uint32(blob[off+12])<<24)
		start := off + 17
		payload := blob[start : start+plen]
		if _, err := decodePayload(schema, typ, payload); err != nil {
			t.Fatalf("record at %d: %v", off, err)
		}
		for n := 0; n < plen; n++ {
			if _, err := decodePayload(schema, typ, payload[:n]); err == nil {
				t.Fatalf("record at %d: payload cut to %d of %d bytes decoded", off, n, plen)
			}
		}
		if _, err := decodePayload(schema, typ, append(payload[:plen:plen], 0)); err == nil {
			t.Fatalf("record at %d: a trailing byte decoded", off)
		}
		for i := start; i < start+plen; i++ {
			for bit := 0; bit < 8; bit++ {
				flipped := bytes.Clone(blob)
				flipped[i] ^= 1 << bit
				if _, err := DecodeBlob(schema, flipped); err == nil {
					t.Fatalf("flip of bit %d of byte %d decoded", bit, i)
				}
			}
		}
		off = start + plen
	}
}
