package diskann

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"blendhouse/internal/index"
)

// File layout (little-endian). The body is fixed-size node records so
// a file-backed searcher (disk.go) can seek to node i directly:
//
//	header: magic u32 | dim u32 | degree u32 | entry i64 | n u64
//	node i: id i64 | nEdges u32 | degree×u32 (padded) | dim×f32
const (
	magic      = uint32(0xD15CA22A)
	headerSize = 4 + 4 + 4 + 8 + 8
)

// nodeRecordSize returns the fixed byte size of one node record.
func nodeRecordSize(dim, degree int) int {
	return 8 + 4 + 4*degree + 4*dim
}

// Save writes the built graph in the on-disk layout. It builds first
// if needed.
func (ix *Index) Save(w io.Writer) error {
	if err := ix.Build(); err != nil {
		return err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bw := bufio.NewWriter(w)
	n := len(ix.ids)
	degree := ix.params.DegreeBound
	for _, h := range []any{magic, uint32(ix.params.Dim), uint32(degree), int64(ix.entry), uint64(n)} {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("diskann: writing header: %w", err)
		}
	}
	pad := make([]uint32, degree)
	for i := 0; i < n; i++ {
		if err := binary.Write(bw, binary.LittleEndian, ix.ids[i]); err != nil {
			return err
		}
		edges := ix.adj[i]
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(edges))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, edges); err != nil {
			return err
		}
		if len(edges) < degree {
			if err := binary.Write(bw, binary.LittleEndian, pad[:degree-len(edges)]); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, ix.row(i)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load restores a graph written by Save into memory.
func (ix *Index) Load(blob []byte) error {
	c := index.NewCursor(blob)
	m, dim32, degree32, entry, n64 := c.U32(), c.U32(), c.U32(), c.I64(), c.U64()
	if err := c.Err(); err != nil {
		return fmt.Errorf("diskann: reading header: %w", err)
	}
	if m != magic {
		return index.Corruptf("diskann: bad magic %#x", m)
	}
	dim := ix.params.Dim
	if int(dim32) != dim {
		return index.Corruptf("diskann: stored dim %d != constructed dim %d", dim32, dim)
	}
	// The body is exactly n fixed-size records.
	rec := uint64(nodeRecordSize(dim, 0)) + 4*uint64(degree32)
	if body := uint64(c.Remaining()); n64 > body/rec || n64*rec != body {
		return index.Corruptf("diskann: %d nodes of degree %d do not match the %d body bytes", n64, degree32, body)
	}
	n, degree := int(n64), int(degree32)
	if entry < -1 || entry >= int64(n) || (entry < 0) != (n == 0) {
		return index.Corruptf("diskann: entry point %d with %d nodes", entry, n)
	}
	ids := make([]int64, n)
	adj := make([][]uint32, n)
	edges := make([]uint32, n*degree)
	data := make([]float32, n*dim)
	for i := range ids {
		ids[i] = c.I64()
		ne := int(c.U32())
		if ne > degree {
			return index.Corruptf("diskann: node %d edge count %d > degree %d", i, ne, degree)
		}
		slots := edges[i*degree : (i+1)*degree : (i+1)*degree]
		c.Uint32s(slots)
		adj[i] = slots[:ne]
		for _, nb := range adj[i] {
			if int(nb) >= n {
				return index.Corruptf("diskann: node %d links to %d of %d nodes", i, nb, n)
			}
		}
		c.Float32s(data[i*dim : (i+1)*dim])
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.ids, ix.adj, ix.data, ix.entry = ids, adj, data, int(entry)
	ix.built = true
	return nil
}
