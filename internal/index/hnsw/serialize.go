package hnsw

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"blendhouse/internal/index"
	"blendhouse/internal/quant"
)

// Wire versions. v1 and v2 carry the graph as one variable-length
// record per node; v2 pads the header from 29 to 32 bytes so that every
// later field — node records are multiples of 4, length prefixes of 8 —
// and with them the float payload starts on a multiple of 4 from the
// start of the blob (in v1 the payload sits at 37 + 4k, which no
// float32 view can reach). v3 keeps that header and payload and lays
// the graph out in columns, each aligned for its element type, so that
// a loaded index reads them where they lie. Save writes v3; Load reads
// all three, because stores written by earlier builds hold v1 and v2.
const (
	magicV1   = uint32(0xB145A7E1)
	magicV2   = uint32(0xB145A7E2)
	magic     = uint32(0xB145A7E3)
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

func appendU32s(b []byte, vals []uint32) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// Save serializes graph and store (wire v3) and hands them to w in one
// write:
//
//	magic u32 | kind u8 | pad 3×0 | dim u32 | entry i64 | maxLevel u32 | nNodes u64
//	ids i64[n] | levels u32[n] | off0 u32[n+1] | nbr0 u32[off0[n]]
//	  (node i's layer-0 neighbours are nbr0[off0[i]:off0[i+1]])
//	per node of level > 0, per layer 1..level: deg u32 | deg×u32
//	store payload: nFloats u64 | floats, or
//	               nParams u64 | SQ params | nCodes u64 | codes
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	le, n := binary.LittleEndian, len(ix.ids)
	b := make([]byte, 0, 64+20*n+4*(len(ix.nbr0)+len(ix.upper))+int(ix.store.memoryBytes()))
	b = append(le.AppendUint32(b, magic), ix.storeKind(), 0, 0, 0)
	b = le.AppendUint32(b, uint32(ix.params.Dim))
	b = le.AppendUint64(b, uint64(ix.entry))
	b = le.AppendUint32(b, uint32(ix.maxLevel))
	b = le.AppendUint64(b, uint64(n))
	for _, id := range ix.ids {
		b = le.AppendUint64(b, uint64(id))
	}
	b = appendU32s(b, ix.levels)
	off := uint32(0)
	for i := range ix.ids {
		b = le.AppendUint32(b, off)
		off += ix.end0[i] - ix.beg0[i]
	}
	b = le.AppendUint32(b, off)
	for i := range ix.ids {
		b = appendU32s(b, ix.neighbors(i, 0))
	}
	for i, level := range ix.levels {
		for l := 1; l <= int(level); l++ {
			// The wire record is the block's live prefix: count | neighbors.
			blk := ix.upperBlock(i, l)
			b = appendU32s(b, blk[:1+blk[0]])
		}
	}
	switch st := ix.store.(type) {
	case *floatStore:
		b = le.AppendUint64(b, uint64(len(st.data)))
		for _, f := range st.data {
			b = le.AppendUint32(b, math.Float32bits(f))
		}
	case *sqStore:
		if st.sq == nil {
			return fmt.Errorf("hnsw: saving untrained SQ store")
		}
		params := st.sq.Marshal()
		b = append(le.AppendUint64(b, uint64(len(params))), params...)
		b = append(le.AppendUint64(b, uint64(len(st.codes))), st.codes...)
	}
	_, err := w.Write(b)
	return err
}

// SavedRows implements index.RowKeeper: the float store's payload is the
// added rows as given and ends the blob (any wire version); SQ codes
// are not rows.
func (ix *Index) SavedRows(blobLen int64) (off, length int64, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if st, isFloat := ix.store.(*floatStore); isFloat {
		length, ok = 4*int64(len(st.data)), true
	}
	return blobLen - length, length, ok
}

// Load restores state written by Save (any wire version) into this
// index, which must have been constructed with the same dimension,
// variant and M. A v3 graph is validated and then viewed where it lies
// (viewGraph); a v1/v2 graph is decoded into slabs of the index's own
// (decodeGraph). The vector payload is read in place in every version
// that allows it (loadStore). So the index keeps referencing blob: the
// caller hands it over and must not modify it afterwards. Every count
// is bounded by the bytes that remain and every reference is
// range-checked, so a blob that loads cannot make a search index out
// of bounds; a failed Load leaves the index as it was.
func (ix *Index) Load(blob []byte) error {
	c := index.NewCursor(blob)
	m, kind := c.U32(), c.U8()
	var pad []byte
	if m != magicV1 {
		pad = c.Bytes(3)
	}
	dim, entry, maxLevel, nNodes := c.U32(), c.I64(), c.U32(), c.U64()
	if err := c.Err(); err != nil {
		return fmt.Errorf("hnsw: reading header: %w", err)
	}
	if m != magic && m != magicV2 && m != magicV1 {
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
	// In every version a node costs at least 16 bytes (id, level, and a
	// layer-0 degree or offset) and every layer of a node at least its
	// degree field.
	n := c.Count(nNodes, 16)
	top := c.Count(uint64(maxLevel), 4)
	if err := c.Err(); err != nil {
		return fmt.Errorf("hnsw: node count %d, max level %d: %w", nNodes, maxLevel, err)
	}
	if entry < -1 || entry >= int64(n) || (entry < 0) != (n == 0) {
		return index.Corruptf("hnsw: entry point %d with %d nodes", entry, n)
	}
	if uint64(n)*uint64(ix.stride0) > math.MaxUint32 {
		return index.Corruptf("hnsw: %d nodes overflow the layer-0 offsets", n)
	}
	var g graph
	var err error
	if m == magic {
		err = ix.viewGraph(&c, &g, n, int(entry), top)
	} else {
		err = ix.decodeGraph(&c, &g, n, int(entry), top)
	}
	if err != nil {
		return err
	}
	if err := ix.loadStore(&c, n); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.graph, ix.entry, ix.maxLevel = g, int(entry), top
	return nil
}

// viewGraph takes a v3 graph section: the node columns and the layer-0
// adjacency stay in the blob, checked but not moved; the upper layers'
// records are decoded as in every version.
func (ix *Index) viewGraph(c *index.Cursor, g *graph, n, entry, top int) error {
	g.ids = index.Lend(n, c.Int64View, c.Int64s)
	g.levels = index.Lend(n, c.Uint32View, c.Uint32s)
	off0 := index.Lend(n+1, c.Uint32View, c.Uint32s)
	// A truncated column reads as zeros, which pass; readNodes reports it.
	if off0[0] != 0 {
		return index.Corruptf("hnsw: layer 0 starts at offset %d", off0[0])
	}
	for i, level := range g.levels {
		if level > uint32(top) || off0[i] > off0[i+1] || off0[i+1]-off0[i] > uint32(ix.stride0) {
			return index.Corruptf("hnsw: node %d level %d of %d, layer 0 at offsets %d to %d", i, level, top, off0[i], off0[i+1])
		}
	}
	g.nbr0 = index.Lend(c.Count(uint64(off0[n]), 4), c.Uint32View, c.Uint32s)
	if err := checkLayer(g.nbr0, g.levels, 0); err != nil {
		return err
	}
	g.beg0, g.end0, g.frozen = off0[:n:n], off0[1:], true
	return ix.readNodes(c, g, entry, top, false)
}

// decodeGraph takes a v1/v2 graph section, one record per node (id i64
// | level u32 | per layer: deg u32 | deg×u32), into the owned form. A
// sizing walk over the records learns every level (the upper slab's
// size, and what the edge checks need) before readNodes decodes them.
func (ix *Index) decodeGraph(c *index.Cursor, g *graph, n, entry, top int) error {
	g.levels = make([]uint32, n)
	scan := *c
	for i := range g.levels {
		scan.Bytes(8) // id
		g.levels[i] = scan.U32()
		if g.levels[i] > uint32(top) {
			return index.Corruptf("hnsw: node %d level %d > max level %d", i, g.levels[i], top)
		}
		for l := 0; l <= int(g.levels[i]); l++ {
			scan.Bytes(4 * int(scan.U32()))
		}
		if err := scan.Err(); err != nil {
			return fmt.Errorf("hnsw: reading node %d: %w", i, err)
		}
	}
	g.ids = make([]int64, n)
	g.beg0, g.end0 = make([]uint32, n), make([]uint32, n)
	g.nbr0 = make([]uint32, n*ix.stride0)
	return ix.readNodes(c, g, entry, top, true)
}

// readNodes sizes the upper slab from the levels (already <= top) and
// decodes every node's upper-layer records into it; with inline set
// (v1/v2) each node's id, level and layer-0 record come first.
func (ix *Index) readNodes(c *index.Cursor, g *graph, entry, top int, inline bool) error {
	if entry >= 0 && int(g.levels[entry]) != top {
		return index.Corruptf("hnsw: entry point %d has level %d, max level is %d", entry, g.levels[entry], top)
	}
	layers := uint64(0)
	for _, level := range g.levels {
		layers += uint64(level)
	}
	if layers*uint64(ix.strideU) > math.MaxUint32 {
		return index.Corruptf("hnsw: %d upper-layer blocks overflow the offset table", layers)
	}
	g.upperOff = make([]uint32, len(g.levels))
	g.upper = make([]uint32, c.Count(layers, 4)*ix.strideU)
	off := 0
	for i, level := range g.levels {
		if inline {
			g.ids[i] = c.I64()
			c.U32() // level, taken by the sizing walk
			g.beg0[i] = uint32(i * ix.stride0)
			deg, err := readLayer(c, g.nbr0[g.beg0[i]:][:ix.stride0], g.levels, i, 0)
			if err != nil {
				return err
			}
			g.end0[i] = g.beg0[i] + deg
		}
		g.upperOff[i] = uint32(off)
		for l := 1; l <= int(level) && c.Err() == nil; l++ {
			b := g.upper[off : off+ix.strideU]
			off += ix.strideU
			deg, err := readLayer(c, b[1:], g.levels, i, l)
			if err != nil {
				return err
			}
			b[0] = deg
		}
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("hnsw: reading graph: %w", err)
	}
	return nil
}

// readLayer decodes one adjacency record (deg u32 | deg×u32) of node i
// at layer l into slots and returns its degree.
func readLayer(c *index.Cursor, slots, levels []uint32, i, l int) (uint32, error) {
	deg := c.U32()
	if int(deg) > len(slots) {
		return 0, index.Corruptf("hnsw: node %d layer %d degree %d > cap %d", i, l, deg, len(slots))
	}
	c.Uint32s(slots[:deg])
	return deg, checkLayer(slots[:deg], levels, l)
}

// checkLayer verifies that every neighbour in a layer-l adjacency is a
// node of level >= l.
func checkLayer(nbrs, levels []uint32, l int) error {
	for _, nb := range nbrs {
		if int(nb) >= len(levels) || int(levels[nb]) < l {
			return index.Corruptf("hnsw: layer %d links to node %d, which is not on that layer", l, nb)
		}
	}
	return nil
}

// loadStore takes over the vector payload, the blob's last section: it
// must hold exactly n rows and end the blob. The payload is borrowed
// from the blob rather than copied — floats as a view where the host
// and the address allow it (always for a v2 or v3 blob at an aligned
// address on a little-endian host, never for v1 at one), SQ codes as
// the bytes they are. Both come back with cap == len, so a later
// AddWithIDs reallocates the slab instead of writing into the blob. The
// store is assigned only once all of it has been accepted.
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
		st.data = index.Lend(cnt, c.Float32View, c.Float32s)
		return nil
	case *sqStore:
		params := c.Bytes(c.Count(c.U64(), 1))
		if err := c.Err(); err != nil {
			return fmt.Errorf("hnsw: reading SQ params: %w", err)
		}
		sq, err := quant.UnmarshalScalar(params)
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
		st.use(sq)
		st.codes = c.Bytes(cnt)
		// The on-disk format carries only codes; the fast-path code
		// sums are derived state and are rebuilt here.
		st.rebuildStats()
		return nil
	}
	return fmt.Errorf("hnsw: unknown store %T", ix.store)
}
