package ivf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"blendhouse/internal/index"
	"blendhouse/internal/quant"
	"blendhouse/internal/vec"
)

const magic = uint32(0xB11F1DEC)

// Save serializes the trained index:
//
//	magic u32 | variant u8 | dim u32 | nlist u32 | count u64
//	centroids: nlist*dim float32
//	pq blob (len-prefixed; 0 for FLAT)
//	per list: nids u64 | ids | payload (floats or codes)
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.trainedLocked() {
		return fmt.Errorf("ivf: saving untrained index")
	}
	bw := bufio.NewWriter(w)
	hdr := []any{magic, uint8(ix.variant), uint32(ix.params.Dim), uint32(len(ix.lists)), uint64(ix.count)}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("ivf: writing header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.cents.Data); err != nil {
		return fmt.Errorf("ivf: writing centroids: %w", err)
	}
	var pqBlob []byte
	if ix.pq != nil {
		pqBlob = ix.pq.Marshal()
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(pqBlob))); err != nil {
		return err
	}
	if _, err := bw.Write(pqBlob); err != nil {
		return err
	}
	for li := range ix.lists {
		l := &ix.lists[li]
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(l.ids))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, l.ids); err != nil {
			return err
		}
		if ix.variant == VariantFlat {
			if err := binary.Write(bw, binary.LittleEndian, l.data); err != nil {
				return err
			}
		} else {
			if _, err := bw.Write(l.code); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load restores an index written by Save. The receiving index must
// have matching dim and variant.
func (ix *Index) Load(blob []byte) error {
	c := index.NewCursor(blob)
	m, variant, dim32, nlist32, count64 := c.U32(), c.U8(), c.U32(), c.U32(), c.U64()
	if err := c.Err(); err != nil {
		return fmt.Errorf("ivf: reading header: %w", err)
	}
	if m != magic {
		return index.Corruptf("ivf: bad magic %#x", m)
	}
	if Variant(variant) != ix.variant {
		return index.Corruptf("ivf: stored variant %d != constructed variant %d", variant, ix.variant)
	}
	dim := ix.params.Dim
	if int(dim32) != dim {
		return index.Corruptf("ivf: stored dim %d != constructed dim %d", dim32, dim)
	}
	// Each list costs its centroid plus a length prefix; each row at
	// least its id.
	nlist := c.Count(uint64(nlist32), 4*dim+8)
	count := c.Count(count64, 8)
	if err := c.Err(); err != nil {
		return fmt.Errorf("ivf: nlist %d, count %d: %w", nlist32, count64, err)
	}
	cents := vec.NewMatrix(nlist, dim)
	c.Float32s(cents.Data)
	var pq *quant.ProductQuantizer
	if pqBlob := c.Bytes(c.Count(c.U64(), 1)); len(pqBlob) > 0 {
		var err error
		if pq, err = quant.UnmarshalPQ(pqBlob); err != nil {
			return index.Corruptf("ivf: %v", err)
		}
		if pq.Dim != dim {
			return index.Corruptf("ivf: PQ codebook for dim %d, index dim %d", pq.Dim, dim)
		}
		// Train gives IVFPQFS 4-bit codes whatever PQNbits says;
		// IVFPQ takes either width.
		if ix.variant == VariantPQFS && pq.Nbits != 4 {
			return index.Corruptf("ivf: IVFPQFS with a %d-bit PQ codebook", pq.Nbits)
		}
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("ivf: reading codebooks: %w", err)
	}
	if (pq != nil) != (ix.variant != VariantFlat) {
		return index.Corruptf("ivf: variant %d with PQ codebook present=%v", ix.variant, pq != nil)
	}
	rowBytes := 4 * dim
	if pq != nil {
		rowBytes = pq.CodeSize()
	}
	lists := make([]list, nlist)
	rows := 0
	for li := range lists {
		l := &lists[li]
		n := c.Count(c.U64(), 8+rowBytes)
		if err := c.Err(); err != nil {
			return fmt.Errorf("ivf: reading list %d: %w", li, err)
		}
		l.ids = make([]int64, n)
		c.Int64s(l.ids)
		if pq == nil {
			l.data = make([]float32, n*dim)
			c.Float32s(l.data)
		} else {
			l.code = append([]byte(nil), c.Bytes(n*rowBytes)...)
		}
		rows += n
	}
	if rows != count || c.Remaining() != 0 {
		return index.Corruptf("ivf: lists hold %d rows for a count of %d, %d trailing bytes", rows, count, c.Remaining())
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.cents, ix.pq, ix.lists, ix.count = cents, pq, lists, count
	return nil
}
