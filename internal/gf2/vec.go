// Package gf2 provides linear algebra over GF(2), the two-element field.
//
// Everything in this repository — LFSR state evolution, phase-shifter
// outputs, seed computation, State Skip circuit derivation — reduces to
// arithmetic on bit vectors and bit matrices over GF(2). Vectors are packed
// 64 bits per word; all hot operations are word-parallel.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Vec is a bit vector over GF(2) with a fixed length in bits.
// The zero value is an empty vector; use NewVec to create a sized one.
type Vec struct {
	n     int // length in bits
	words []uint64
}

// NewVec returns an all-zero vector of n bits. It panics if n is negative.
func NewVec(n int) Vec {
	if n < 0 {
		panic(fmt.Sprintf("gf2: negative vector length %d", n))
	}
	return Vec{n: n, words: make([]uint64, wordsFor(n))}
}

// VecView wraps an existing word slice as an n-bit vector without copying.
// The caller must guarantee len(words) == (n+63)/64 and that any bits above
// n in the last word are zero. Large precomputed tables (e.g. the symbolic
// output expressions of an LFSR window) use views into one arena to avoid
// per-vector allocation overhead.
func VecView(n int, words []uint64) Vec {
	if len(words) != wordsFor(n) {
		panic(fmt.Sprintf("gf2: VecView of %d bits needs %d words, got %d", n, wordsFor(n), len(words)))
	}
	return Vec{n: n, words: words}
}

// FromBits builds a vector from a slice of bits (0 or 1), bit i of the
// result being bitsIn[i].
func FromBits(bitsIn []uint8) Vec {
	v := NewVec(len(bitsIn))
	for i, b := range bitsIn {
		if b != 0 {
			v.SetBit(i, 1)
		}
	}
	return v
}

// FromString parses a string of '0', '1' and separators ('_' and spaces are
// ignored). Bit 0 of the result is the first character.
func FromString(s string) (Vec, error) {
	clean := make([]uint8, 0, len(s))
	for _, r := range s {
		switch r {
		case '0':
			clean = append(clean, 0)
		case '1':
			clean = append(clean, 1)
		case '_', ' ':
		default:
			return Vec{}, fmt.Errorf("gf2: invalid character %q in vector literal", r)
		}
	}
	return FromBits(clean), nil
}

// Len returns the length of the vector in bits.
func (v Vec) Len() int { return v.n }

// Words exposes the backing words (least-significant word first). The slice
// must not be resized by the caller; it is shared, not copied.
func (v Vec) Words() []uint64 { return v.words }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (v Vec) Bit(i int) uint8 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: bit index %d out of range [0,%d)", i, v.n))
	}
	return uint8(v.words[i/wordBits] >> (uint(i) % wordBits) & 1)
}

// SetBit sets bit i to b&1. It panics if i is out of range.
func (v Vec) SetBit(i int, b uint8) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: bit index %d out of range [0,%d)", i, v.n))
	}
	mask := uint64(1) << (uint(i) % wordBits)
	if b&1 != 0 {
		v.words[i/wordBits] |= mask
	} else {
		v.words[i/wordBits] &^= mask
	}
}

// FlipBit toggles bit i.
func (v Vec) FlipBit(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: bit index %d out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] ^= uint64(1) << (uint(i) % wordBits)
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of src. The lengths must match.
func (v Vec) CopyFrom(src Vec) {
	if v.n != src.n {
		panic(fmt.Sprintf("gf2: CopyFrom length mismatch %d != %d", v.n, src.n))
	}
	copy(v.words, src.words)
}

// Zero clears all bits of v in place.
func (v Vec) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Xor sets v ^= w in place. The lengths must match.
func (v Vec) Xor(w Vec) {
	if v.n != w.n {
		panic(fmt.Sprintf("gf2: Xor length mismatch %d != %d", v.n, w.n))
	}
	for i, ww := range w.words {
		v.words[i] ^= ww
	}
}

// And sets v &= w in place. The lengths must match.
func (v Vec) And(w Vec) {
	if v.n != w.n {
		panic(fmt.Sprintf("gf2: And length mismatch %d != %d", v.n, w.n))
	}
	for i, ww := range w.words {
		v.words[i] &= ww
	}
}

// IsZero reports whether every bit of v is zero.
func (v Vec) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have identical length and contents.
func (v Vec) Equal(w Vec) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v Vec) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// FirstSet returns the index of the lowest set bit, or -1 if v is zero.
func (v Vec) FirstSet() int {
	for i, w := range v.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextSet returns the index of the lowest set bit at or after from,
// or -1 if there is none.
func (v Vec) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	wi := from / wordBits
	w := v.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < len(v.words); i++ {
		if v.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(v.words[i])
		}
	}
	return -1
}

// Dot returns the GF(2) inner product of v and w (parity of the AND).
func (v Vec) Dot(w Vec) uint8 {
	if v.n != w.n {
		panic(fmt.Sprintf("gf2: Dot length mismatch %d != %d", v.n, w.n))
	}
	var acc uint64
	for i := range v.words {
		acc ^= v.words[i] & w.words[i]
	}
	return uint8(bits.OnesCount64(acc) & 1)
}

// String renders the vector as a bit string, bit 0 first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Support returns the indices of all set bits in ascending order.
func (v Vec) Support() []int {
	idx := make([]int, 0, v.PopCount())
	for i := v.FirstSet(); i >= 0; i = v.NextSet(i + 1) {
		idx = append(idx, i)
	}
	return idx
}

// maskTail clears any bits above n in the last word. Internal helpers that
// write whole words call this to maintain the invariant that unused high
// bits are zero (Equal, IsZero and PopCount rely on it).
func (v Vec) maskTail() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << (uint(v.n) % wordBits)) - 1
	}
}

// Transpose64 transposes a 64×64 bit matrix in place: bit j of a[i] moves
// to bit i of a[j]. Each round swaps the off-diagonal k×k blocks of every
// 2k×2k block, halving k from 32 to 1.
func Transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for k := 32; k != 0; k >>= 1 {
		for i := 0; i < 64; i = (i + k + 1) &^ k {
			t := (a[i]>>uint(k) ^ a[i+k]) & m
			a[i+k] ^= t
			a[i] ^= t << uint(k)
		}
		m ^= m << uint(k>>1)
	}
}
