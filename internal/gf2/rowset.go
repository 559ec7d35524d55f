package gf2

import "fmt"

// RowSet is a read-only set of equal-width coefficient rows backed by one
// contiguous word arena: row i occupies arena words [i·words, (i+1)·words).
// Symbolic expression tables (one row per decompressor output slot) hand
// their arena to a RowSet so solvers can address equations by row index
// instead of materialised Equation values. Row sets are shared read-only
// across concurrent scanner views; the frozentables analyzer
// (internal/lint) rejects any write through a RowSet.
//
// lint:frozen
type RowSet struct {
	n     int
	words int
	arena []uint64
}

// NewRowSet wraps arena as a set of n-bit rows. The arena length must be a
// multiple of the per-row word count.
func NewRowSet(n int, arena []uint64) RowSet {
	if n <= 0 {
		panic(fmt.Sprintf("gf2: row set needs positive width, got %d", n))
	}
	w := wordsFor(n)
	if len(arena)%w != 0 {
		panic(fmt.Sprintf("gf2: row-set arena of %d words not a multiple of row width %d", len(arena), w))
	}
	return RowSet{n: n, words: w, arena: arena}
}

// N returns the row width in bits.
func (rs RowSet) N() int { return rs.n }

// Count returns the number of rows.
func (rs RowSet) Count() int { return len(rs.arena) / rs.words }

// Row returns the arena-backed view of row i. The view is read-only by
// convention; callers must not modify it.
func (rs RowSet) Row(i int) Vec {
	return VecView(rs.n, rs.arena[i*rs.words:(i+1)*rs.words])
}

// ColumnsInto transposes rows first, first+1, …, first+count−1 (count at
// most 64) into column words: bit b of dst[j] becomes bit j of
// Row(first+b), for every column j < N, and bits at or above count are
// clear. dst must hold at least N words. The parity of a row set's rows
// against x is then the XOR of the column words over the support of x, 64
// rows at once. It reads the arena directly and allocates nothing.
func (rs RowSet) ColumnsInto(first, count int, dst []uint64) {
	if first < 0 || count < 0 || count > wordBits || first+count > rs.Count() {
		panic(fmt.Sprintf("gf2: ColumnsInto rows [%d,%d) outside [0,%d) or over %d", first, first+count, rs.Count(), wordBits))
	}
	w := rs.words
	var blk [wordBits]uint64
	for k := 0; k < w; k++ {
		for b := range blk {
			blk[b] = 0
			if b < count {
				blk[b] = rs.arena[(first+b)*w+k]
			}
		}
		Transpose64(&blk)
		copy(dst[k*wordBits:min((k+1)*wordBits, rs.n)], blk[:])
	}
}
