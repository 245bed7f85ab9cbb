// Package wal is BlendHouse's durable real-time write path: a
// per-table write-ahead log of INSERT/DELETE statements stored as
// immutable blobs on the shared store, group-committed so concurrent
// writers coalesce into one fsynced append, plus the searchable
// in-memory memtable that makes acknowledged-but-unflushed rows
// visible to queries immediately (paper §III-B realtime updates,
// extended below segment granularity).
//
// The package knows nothing about the LSM engine: it operates on
// storage.BlobStore and storage.RowBatch only. The table-level
// integration (flush into L0 segments, crash recovery in lsm.Open,
// flushed-LSN bookkeeping) lives in internal/lsm.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"blendhouse/internal/storage"
)

// RecordType discriminates WAL records.
type RecordType uint8

// Record types. Values are part of the on-disk format.
const (
	// RecInsert carries a columnar row batch.
	RecInsert RecordType = 1
	// RecDelete carries a key column name and the keys to delete.
	RecDelete RecordType = 2
)

// Record is one logged DML statement. LSNs are assigned by the log at
// commit time, start at 1, and increase by one per record.
type Record struct {
	LSN  int64
	Type RecordType

	// Batch holds the inserted rows (RecInsert).
	Batch *storage.RowBatch

	// DeleteCol / DeleteKeys describe a key delete (RecDelete).
	DeleteCol  string
	DeleteKeys []int64
}

// Blob format:
//
//	magic   u32  = walMagic
//	version u8   = walVersion
//	records:
//	  lsn   u64
//	  type  u8
//	  plen  u32
//	  crc   u32   (IEEE CRC-32 of the payload bytes)
//	  payload [plen]byte
//
// Insert payload: u32 row count, then each schema column in order as
// storage.AppendValues encodes it and storage.DecodeValues reads it
// (ints/floats little-endian, strings length-prefixed, vectors as
// dim×rows float32s). Delete payload: u16 column-name length + name,
// u32 key count, keys. Blobs are written atomically (one Put per
// group commit), so a torn record is corruption, not a crash artifact
// — decoding fails loudly instead of silently truncating.
const (
	walMagic   uint32 = 0x42485741 // "BHWA"
	walVersion byte   = 1
)

type walBuf struct{ b []byte }

func (w *walBuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *walBuf) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *walBuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *walBuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *walBuf) raw(p []byte) { w.b = append(w.b, p...) }
func (w *walBuf) str(s string) { w.b = append(w.b, s...) }

// walReader consumes a blob or a record payload front to back.
type walReader struct{ b []byte }

func (r *walReader) take(n int) ([]byte, error) {
	if len(r.b) < n {
		return nil, fmt.Errorf("wal: truncated record (need %d bytes, have %d)", n, len(r.b))
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p, nil
}

// uint reads an n-byte little-endian unsigned integer.
func (r *walReader) uint(n int) (uint64, error) {
	p, err := r.take(n)
	var v uint64
	for i := len(p) - 1; i >= 0; i-- {
		v = v<<8 | uint64(p[i])
	}
	return v, err
}

// values decodes rows values of a def column into dst, as a granule's
// are decoded (storage.DecodeValues).
func (r *walReader) values(def storage.ColumnDef, rows int, dst *storage.ColumnData) (err error) {
	r.b, err = storage.DecodeValues(r.b, def, rows, dst)
	return err
}

// encodePayload serializes a record's body (everything after the
// per-record header). An insert is its row count, then each column's
// values as a granule encodes them (storage.AppendValues), in one
// buffer sized from the batch.
func encodePayload(rec *Record) ([]byte, error) {
	var w walBuf
	switch rec.Type {
	case RecInsert:
		if err := rec.Batch.Validate(); err != nil {
			return nil, err
		}
		size := 4
		for _, col := range rec.Batch.Cols {
			size += col.EncodedSize()
		}
		w.b = make([]byte, 0, size)
		w.u32(uint32(rec.Batch.Len()))
		for _, col := range rec.Batch.Cols {
			var err error
			if w.b, err = storage.AppendValues(w.b, col, 0, col.Len()); err != nil {
				return nil, err
			}
		}
	case RecDelete:
		if len(rec.DeleteCol) > 0xFFFF {
			return nil, fmt.Errorf("wal: delete column name too long")
		}
		w.u16(uint16(len(rec.DeleteCol)))
		w.str(rec.DeleteCol)
		w.u32(uint32(len(rec.DeleteKeys)))
		for _, k := range rec.DeleteKeys {
			w.u64(uint64(k))
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return w.b, nil
}

// decodePayload parses a record body against the table schema. Insert
// columns and delete keys decode as granule values do.
func decodePayload(schema *storage.Schema, typ RecordType, payload []byte) (*Record, error) {
	r := &walReader{b: payload}
	rec := &Record{Type: typ}
	switch typ {
	case RecInsert:
		n, err := r.uint(4)
		if err != nil {
			return nil, err
		}
		rec.Batch = storage.NewRowBatch(schema)
		for _, col := range rec.Batch.Cols {
			if err := r.values(col.Def, int(n), col); err != nil {
				return nil, err
			}
		}
	case RecDelete:
		nl, err := r.uint(2)
		if err != nil {
			return nil, err
		}
		name, err := r.take(int(nl))
		if err != nil {
			return nil, err
		}
		rec.DeleteCol = string(name)
		nk, err := r.uint(4)
		if err != nil {
			return nil, err
		}
		keys := storage.ColumnData{Def: storage.ColumnDef{Name: rec.DeleteCol, Type: storage.Int64Type}}
		if err := r.values(keys.Def, int(nk), &keys); err != nil {
			return nil, err
		}
		rec.DeleteKeys = keys.Ints
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", typ)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after record payload", len(r.b))
	}
	return rec, nil
}

// EncodeBlob serializes one group commit's records into a WAL blob.
func EncodeBlob(recs []*Record) ([]byte, error) {
	payloads := make([][]byte, len(recs))
	size := 5 // magic, version
	for i, rec := range recs {
		payload, err := encodePayload(rec)
		if err != nil {
			return nil, err
		}
		payloads[i] = payload
		size += 17 + len(payload) // LSN, type, length, checksum, payload
	}
	w := walBuf{b: make([]byte, 0, size)}
	w.u32(walMagic)
	w.u8(walVersion)
	for i, rec := range recs {
		payload := payloads[i]
		w.u64(uint64(rec.LSN))
		w.u8(byte(rec.Type))
		w.u32(uint32(len(payload)))
		w.u32(crc32.ChecksumIEEE(payload))
		w.raw(payload)
	}
	return w.b, nil
}

// DecodeBlob parses a WAL blob back into records, verifying per-record
// checksums.
func DecodeBlob(schema *storage.Schema, blob []byte) ([]*Record, error) {
	r := &walReader{b: blob}
	magic, err := r.uint(4)
	if err != nil {
		return nil, err
	}
	if magic != uint64(walMagic) {
		return nil, fmt.Errorf("wal: bad magic %#x", magic)
	}
	ver, err := r.uint(1)
	if err != nil {
		return nil, err
	}
	if ver != uint64(walVersion) {
		return nil, fmt.Errorf("wal: unsupported version %d", ver)
	}
	var out []*Record
	for len(r.b) > 0 {
		// lsn u64, type u8, plen u32, crc u32
		var hdr [4]uint64
		for i, n := range [4]int{8, 1, 4, 4} {
			if hdr[i], err = r.uint(n); err != nil {
				return nil, err
			}
		}
		lsn, typ, sum := hdr[0], hdr[1], uint32(hdr[3])
		payload, err := r.take(int(hdr[2]))
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("wal: checksum mismatch at LSN %d", lsn)
		}
		rec, err := decodePayload(schema, RecordType(typ), payload)
		if err != nil {
			return nil, fmt.Errorf("wal: decoding record LSN %d: %w", lsn, err)
		}
		rec.LSN = int64(lsn)
		out = append(out, rec)
	}
	return out, nil
}
