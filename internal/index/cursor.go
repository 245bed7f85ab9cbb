package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrCorrupt is wrapped by every Load failure: the blob is truncated,
// carries a count or reference that does not fit it, or was written
// for a different index type, variant or dimension. Index blobs come
// from a blob store, so a flipped bit must surface as this error and
// never as a panic, an absurd allocation, or a crash at search time.
var ErrCorrupt = errors.New("index: corrupt blob")

// Corruptf formats a Load failure wrapping ErrCorrupt.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// Cursor decodes the little-endian fields of a serialized index
// straight out of the blob, with no reflection and no intermediate
// buffer. A read past the end latches the error and yields zeros, so
// decoders check Err once per record instead of once per field; the
// Count methods bound every length prefix by the bytes that remain,
// so no allocation can exceed the blob that asked for it.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor starts decoding at the first byte of blob.
func NewCursor(blob []byte) Cursor { return Cursor{b: blob} }

// Err returns the latched decode error (wrapping ErrCorrupt), if any.
func (c *Cursor) Err() error { return c.err }

// Remaining returns the number of undecoded bytes.
func (c *Cursor) Remaining() int { return len(c.b) }

// Bytes consumes n bytes and returns them without copying; the slice
// aliases the blob. It returns nil once the cursor has failed.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = Corruptf("truncated: need %d bytes, %d remain", n, len(c.b))
		c.b = nil
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

// U8 decodes one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 decodes a uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 decodes a uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 decodes an int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// Count validates a decoded element count against the bytes that
// remain, given that each element occupies at least elemSize bytes of
// them, and returns it as an int. A count the blob cannot hold fails
// the cursor and returns 0.
func (c *Cursor) Count(n uint64, elemSize int) int {
	if c.err != nil {
		return 0
	}
	if n > uint64(len(c.b)/elemSize) {
		c.err = Corruptf("count %d × %d bytes exceeds the %d remaining", n, elemSize, len(c.b))
		c.b = nil
		return 0
	}
	return int(n)
}

// Uint32s fills dst from the next 4·len(dst) bytes.
func (c *Cursor) Uint32s(dst []uint32) {
	if b := c.Bytes(4 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}
}

// Int64s fills dst from the next 8·len(dst) bytes.
func (c *Cursor) Int64s(dst []int64) {
	if b := c.Bytes(8 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Float32s fills dst from the next 4·len(dst) bytes.
func (c *Cursor) Float32s(dst []float32) {
	if b := c.Bytes(4 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
}

// hostLittleEndian reports that a number in memory has the byte order of
// the wire format, so a run of them can be read where it lies.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view consumes the next n elements and returns them as a []T that
// aliases the blob: no copy, no decode, cap == len (an append
// reallocates and never writes into the blob). The view is read-only
// for exactly as long as the blob is, and keeps the whole blob
// reachable.
//
// It reports false, consuming nothing, when the bytes cannot be viewed
// in place — a big-endian host, a run that does not start on a multiple
// of T's alignment in memory, or fewer than n elements left; the caller
// then falls back to the copying decoder of the same type (which
// latches the truncation). This is the only use of unsafe in the index
// packages; the alignment test is what keeps it within the rules
// checkptr enforces under -race.
func view[T float32 | uint32 | int64](c *Cursor, n int) ([]T, bool) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if !hostLittleEndian || c.err != nil || n <= 0 || n > len(c.b)/size {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(c.b))
	if uintptr(p)%unsafe.Alignof(zero) != 0 {
		return nil, false
	}
	c.b = c.b[size*n:]
	return unsafe.Slice((*T)(p), n), true
}

// Float32View, Uint32View and Int64View are the in-place counterparts
// of Float32s, Uint32s and Int64s: see view.
func (c *Cursor) Float32View(n int) ([]float32, bool) { return view[float32](c, n) }
func (c *Cursor) Uint32View(n int) ([]uint32, bool)   { return view[uint32](c, n) }
func (c *Cursor) Int64View(n int) ([]int64, bool)     { return view[int64](c, n) }

// Lend returns the next n wire elements as a view of the blob where the
// host and the address allow one (view, e.g. c.Float32View), and as a
// copy decoded by decode (e.g. c.Float32s) where not.
func Lend[T any](n int, view func(int) ([]T, bool), decode func([]T)) []T {
	if v, ok := view(n); ok {
		return v
	}
	out := make([]T, n)
	decode(out)
	return out
}
