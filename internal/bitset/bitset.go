// Package bitset implements dense fixed-capacity bitsets.
//
// Bitsets appear in three places in BlendHouse: the pre-filter
// strategy materializes qualifying rows as a bitset handed to the ANN
// bitmap scan; delete bitmaps mark rows superseded by newer versions;
// and segment pruning summarizes which row groups survive predicate
// evaluation. All of them index by row *offset* within an immutable
// segment (see DESIGN.md §5.2), so a dense representation is both
// compact and O(1) to test.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a dense bitset with a fixed logical length set at
// construction. The zero value is an empty bitset of length 0.
type Bitset struct {
	words []uint64
	n     int // logical number of bits
}

// New returns a bitset of n bits, all clear.
func New(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a bitset of n bits, all set.
func NewFull(n int) *Bitset {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

// clearTail zeroes bits beyond the logical length so Count and
// iteration stay exact after whole-word operations.
func (b *Bitset) clearTail() {
	if b.n%wordBits != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(b.n%wordBits)) - 1
	}
}

// Len returns the logical number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// And intersects b with other in place. Lengths must match.
func (b *Bitset) And(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: And length mismatch %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions b with other in place. Lengths must match.
func (b *Bitset) Or(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: Or length mismatch %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot clears in b every bit set in other (b &^= other).
// This is how delete bitmaps are applied to filter bitsets.
func (b *Bitset) AndNot(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: AndNot length mismatch %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// Not flips every bit in place.
func (b *Bitset) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.clearTail()
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// ForEach calls fn for every set bit in ascending order. fn returning
// false stops the iteration early.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1
// if there is none.
func (b *Bitset) NextSet(i int) int {
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Ones returns the indices of all set bits.
func (b *Bitset) Ones() []int {
	return b.AppendOnes(make([]int, 0, b.Count()))
}

// AppendOnes appends the indices of all set bits to dst and returns
// the extended slice — the allocation-free form of Ones for callers
// with a reusable buffer.
func (b *Bitset) AppendOnes(dst []int) []int {
	b.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// MarshalBinary serializes the bitset (length-prefixed words).
// Delete bitmaps are persisted to the blob store in this format.
func (b *Bitset) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	binary.LittleEndian.PutUint64(out, uint64(b.n))
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary deserializes a bitset written by MarshalBinary. It
// rejects a length the payload does not hold exactly and a set bit at
// or past the length, neither of which MarshalBinary writes.
func (b *Bitset) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitset: truncated header (%d bytes)", len(data))
	}
	n, payload := binary.LittleEndian.Uint64(data), uint64(len(data)-8)
	if payload%8 != 0 || n > payload*8 || n+wordBits <= payload*8 {
		return fmt.Errorf("bitset: %d payload bytes do not hold %d bits", payload, n)
	}
	words := make([]uint64, payload/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	if r := n % wordBits; r != 0 && words[len(words)-1]>>r != 0 {
		return fmt.Errorf("bitset: bits set past length %d", n)
	}
	b.n, b.words = int(n), words
	return nil
}
