package hnsw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"blendhouse/internal/index"
)

// Wire versions. Both carry the same fields in the same order; v2 pads
// the header from 29 to 32 bytes so that every later field — node
// records are multiples of 4, length prefixes of 8 — and with them the
// float payload starts on a multiple of 4 from the start of the blob.
// In v1 the payload sits at 37 + 4k, which no float32 view can reach.
// Save writes v2; Load reads both, because stores written by earlier
// builds hold v1.
const (
	magicV1   = uint32(0xB145A7E1)
	magic     = uint32(0xB145A7E2)
	kindFloat = uint8(0)
	kindSQ    = uint8(1)
)

// storeKind is the wire tag of the index's vector store.
func (ix *Index) storeKind() uint8 {
	if _, ok := ix.store.(*sqStore); ok {
		return kindSQ
	}
	return kindFloat
}

// Save serializes graph and store (wire v2):
//
//	magic u32 | kind u8 | pad 3×0 | dim u32 | entry i64 | maxLevel u32 | nNodes u64
//	per node: id i64 | level u32 | per layer: deg u32 | deg×u32
//	store payload: nFloats u64 | floats, or
//	               nParams u64 | SQ params | nCodes u64 | codes
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bw := bufio.NewWriter(w)
	kind := ix.storeKind()
	if err := writeAll(bw, magic, kind, [3]byte{}, uint32(ix.params.Dim), int64(ix.entry), uint32(ix.maxLevel), uint64(len(ix.ids))); err != nil {
		return fmt.Errorf("hnsw: writing header: %w", err)
	}
	for i, id := range ix.ids {
		if err := writeAll(bw, id, uint32(ix.levels[i])); err != nil {
			return fmt.Errorf("hnsw: writing node %d: %w", i, err)
		}
		for l := 0; l <= int(ix.levels[i]); l++ {
			// The wire record is the block's live prefix: count | neighbors.
			b := ix.block(i, l)
			if err := binary.Write(bw, binary.LittleEndian, b[:1+b[0]]); err != nil {
				return err
			}
		}
	}
	if err := ix.saveStore(bw, kind); err != nil {
		return err
	}
	return bw.Flush()
}

func (ix *Index) saveStore(bw *bufio.Writer, kind uint8) error {
	switch kind {
	case kindFloat:
		fs := ix.store.(*floatStore)
		if err := writeAll(bw, uint64(len(fs.data))); err != nil {
			return err
		}
		return binary.Write(bw, binary.LittleEndian, fs.data)
	case kindSQ:
		ss := ix.store.(*sqStore)
		if ss.sq == nil {
			return fmt.Errorf("hnsw: saving untrained SQ store")
		}
		params := ss.sq.Marshal()
		if err := writeAll(bw, uint64(len(params))); err != nil {
			return err
		}
		if _, err := bw.Write(params); err != nil {
			return err
		}
		if err := writeAll(bw, uint64(len(ss.codes))); err != nil {
			return err
		}
		_, err := bw.Write(ss.codes)
		return err
	}
	return fmt.Errorf("hnsw: unknown store kind %d", kind)
}

// Load restores state written by Save (either wire version) into this
// index, which must have been constructed with the same dimension,
// variant and M. The graph is decoded into the final flat arrays: a
// sizing walk over the node records learns every level (the upper
// slab's size, and what the edge checks below need), then one decoding
// walk fills the slabs. The vector payload is not decoded at all where
// it can be read in place (loadStore), so the index keeps referencing
// blob: the caller hands it over and must not modify it afterwards.
// Every count is bounded by the bytes that remain and every reference
// is range-checked, so a blob that loads cannot make a search index
// out of bounds; a failed Load leaves the index empty.
func (ix *Index) Load(blob []byte) error {
	c := index.NewCursor(blob)
	m, kind := c.U32(), c.U8()
	var pad []byte
	if m == magic {
		pad = c.Bytes(3)
	}
	dim, entry, maxLevel, nNodes := c.U32(), c.I64(), c.U32(), c.U64()
	if err := c.Err(); err != nil {
		return fmt.Errorf("hnsw: reading header: %w", err)
	}
	if m != magic && m != magicV1 {
		return index.Corruptf("hnsw: bad magic %#x", m)
	}
	for _, b := range pad {
		if b != 0 {
			return index.Corruptf("hnsw: non-zero header padding % x", pad)
		}
	}
	if int(dim) != ix.params.Dim {
		return index.Corruptf("hnsw: stored dim %d != constructed dim %d", dim, ix.params.Dim)
	}
	if want := ix.storeKind(); kind != want {
		return index.Corruptf("hnsw: stored variant %d != constructed variant %d", kind, want)
	}
	// A node record is at least id + level + one degree field, and
	// every layer of a node costs at least its degree field.
	n := c.Count(nNodes, 16)
	top := c.Count(uint64(maxLevel), 4)
	if err := c.Err(); err != nil {
		return fmt.Errorf("hnsw: node count %d, max level %d: %w", nNodes, maxLevel, err)
	}
	if entry < -1 || entry >= int64(n) || (entry < 0) != (n == 0) {
		return index.Corruptf("hnsw: entry point %d with %d nodes", entry, n)
	}

	levels := make([]int32, n)
	upperLayers := 0
	scan := c
	for i := range levels {
		scan.Bytes(8) // id
		level := int(scan.U32())
		if level > top {
			return index.Corruptf("hnsw: node %d level %d > max level %d", i, level, top)
		}
		for l := 0; l <= level; l++ {
			scan.Bytes(4 * int(scan.U32()))
		}
		if err := scan.Err(); err != nil {
			return fmt.Errorf("hnsw: reading node %d: %w", i, err)
		}
		levels[i] = int32(level)
		upperLayers += level
	}
	if entry >= 0 && int(levels[entry]) != top {
		return index.Corruptf("hnsw: entry point %d has level %d, max level is %d", entry, levels[entry], top)
	}
	if uint64(upperLayers)*uint64(ix.strideU) > math.MaxUint32 {
		return index.Corruptf("hnsw: %d upper-layer blocks overflow the offset table", upperLayers)
	}

	ids := make([]int64, n)
	upperOff := make([]uint32, n)
	links0 := make([]uint32, n*ix.stride0)
	upper := make([]uint32, upperLayers*ix.strideU)
	off := 0
	for i := range ids {
		ids[i] = c.I64()
		c.U32() // level, taken by the sizing walk
		upperOff[i] = uint32(off)
		for l := 0; l <= int(levels[i]); l++ {
			b := links0[i*ix.stride0 : (i+1)*ix.stride0]
			if l > 0 {
				b = upper[off : off+ix.strideU]
				off += ix.strideU
			}
			deg := c.U32()
			if int(deg) >= len(b) {
				return index.Corruptf("hnsw: node %d layer %d degree %d > cap %d", i, l, deg, len(b)-1)
			}
			b[0] = deg
			nbrs := b[1 : 1+deg]
			c.Uint32s(nbrs)
			for _, nb := range nbrs {
				if int(nb) >= n || int(levels[nb]) < l {
					return index.Corruptf("hnsw: node %d layer %d links to %d, which is not on that layer", i, l, nb)
				}
			}
		}
	}
	if err := ix.loadStore(&c, n); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.ids, ix.levels, ix.upperOff, ix.links0, ix.upper = ids, levels, upperOff, links0, upper
	ix.entry, ix.maxLevel = int(entry), top
	return nil
}

// loadStore takes over the vector payload, the blob's last section: it
// must hold exactly n rows and end the blob. The payload is borrowed
// from the blob rather than copied — floats as a view where the host
// and the address allow it (always for a v2 blob at an aligned address
// on a little-endian host, never for v1 at one), SQ codes as the bytes
// they are. Both come back with cap == len, so a later AddWithIDs
// reallocates the slab instead of writing into the blob. The store is
// assigned only once all of it has been accepted.
func (ix *Index) loadStore(c *index.Cursor, n int) error {
	dim := ix.params.Dim
	switch st := ix.store.(type) {
	case *floatStore:
		cnt := c.Count(c.U64(), 4)
		if err := c.Err(); err != nil {
			return fmt.Errorf("hnsw: reading vectors: %w", err)
		}
		if cnt != n*dim {
			return index.Corruptf("hnsw: %d floats stored for %d nodes at dim %d", cnt, n, dim)
		}
		if c.Remaining() != 4*cnt {
			return index.Corruptf("hnsw: %d trailing bytes", c.Remaining()-4*cnt)
		}
		if view, ok := c.Float32View(cnt); ok {
			st.data = view
			return nil
		}
		st.data = make([]float32, cnt)
		c.Float32s(st.data)
		return nil
	case *sqStore:
		params := c.Bytes(c.Count(c.U64(), 1))
		if err := c.Err(); err != nil {
			return fmt.Errorf("hnsw: reading SQ params: %w", err)
		}
		sq, err := unmarshalScalar(params)
		if err != nil {
			return index.Corruptf("hnsw: %v", err)
		}
		if sq.Dim != dim {
			return index.Corruptf("hnsw: SQ params for dim %d, index dim %d", sq.Dim, dim)
		}
		cnt := c.Count(c.U64(), 1)
		if err := c.Err(); err != nil {
			return fmt.Errorf("hnsw: reading SQ codes: %w", err)
		}
		if cnt != n*dim {
			return index.Corruptf("hnsw: %d code bytes stored for %d nodes at dim %d", cnt, n, dim)
		}
		if c.Remaining() != cnt {
			return index.Corruptf("hnsw: %d trailing bytes", c.Remaining()-cnt)
		}
		st.sq = sq
		st.codes = c.Bytes(cnt)
		// The on-disk format carries only codes; the fast-path code
		// sums are derived state and are rebuilt here.
		st.rebuildStats()
		return nil
	}
	return fmt.Errorf("hnsw: unknown store %T", ix.store)
}

func writeAll(w io.Writer, vals ...any) error {
	for _, v := range vals {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
