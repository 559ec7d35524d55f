package gf2

import (
	"fmt"
	"strings"
)

// Mat is a dense matrix over GF(2), stored as a slice of row vectors.
// All rows have the same length (the column count).
type Mat struct {
	rows []Vec
	cols int
}

// NewMat returns an all-zero r×c matrix.
func NewMat(r, c int) Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("gf2: negative matrix dimensions %d×%d", r, c))
	}
	m := Mat{rows: make([]Vec, r), cols: c}
	for i := range m.rows {
		m.rows[i] = NewVec(c)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.rows[i].SetBit(i, 1)
	}
	return m
}

// MatFromRows builds a matrix whose rows are clones of the given vectors,
// which must all have equal length.
func MatFromRows(rows []Vec) Mat {
	if len(rows) == 0 {
		return Mat{}
	}
	c := rows[0].Len()
	m := Mat{rows: make([]Vec, len(rows)), cols: c}
	for i, r := range rows {
		if r.Len() != c {
			panic(fmt.Sprintf("gf2: ragged rows: row %d has %d cols, want %d", i, r.Len(), c))
		}
		m.rows[i] = r.Clone()
	}
	return m
}

// Rows returns the number of rows.
func (m Mat) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m Mat) Cols() int { return m.cols }

// Row returns row i. The vector shares storage with the matrix.
func (m Mat) Row(i int) Vec { return m.rows[i] }

// Set sets element (i, j) to b&1.
func (m Mat) Set(i, j int, b uint8) { m.rows[i].SetBit(j, b) }

// Clone returns a deep copy of m.
func (m Mat) Clone() Mat {
	c := Mat{rows: make([]Vec, len(m.rows)), cols: m.cols}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// Equal reports whether m and o have the same dimensions and contents.
func (m Mat) Equal(o Mat) bool {
	if len(m.rows) != len(o.rows) || m.cols != o.cols {
		return false
	}
	for i := range m.rows {
		if !m.rows[i].Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// MulVec computes m·v where v is a column vector (v.Len() == m.Cols()).
// The result has m.Rows() bits.
func (m Mat) MulVec(v Vec) Vec {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf2: MulVec dimension mismatch: %d cols × %d vec", m.cols, v.Len()))
	}
	out := NewVec(len(m.rows))
	m.MulVecInto(out, v)
	return out
}

// MulVecInto writes m·v into dst (dst.Len() == m.Rows()) without
// allocating. dst must not share storage with v.
func (m Mat) MulVecInto(dst, v Vec) {
	if v.Len() != m.cols || dst.Len() != len(m.rows) {
		panic(fmt.Sprintf("gf2: MulVecInto dimension mismatch: %d×%d by %d-vec into %d-vec", len(m.rows), m.cols, v.Len(), dst.Len()))
	}
	dst.Zero()
	for i, r := range m.rows {
		dst.words[i/wordBits] |= uint64(r.Dot(v)) << (uint(i) % wordBits)
	}
}

// Mul computes the matrix product m·o. m.Cols() must equal o.Rows().
//
// The product is computed row-by-row: row i of the result is the XOR of the
// rows of o selected by the set bits of row i of m, which is word-parallel
// and fast for the small (n ≤ 128) matrices this repository uses.
func (m Mat) Mul(o Mat) Mat {
	if m.cols != len(o.rows) {
		panic(fmt.Sprintf("gf2: Mul dimension mismatch: %d×%d by %d×%d", len(m.rows), m.cols, len(o.rows), o.cols))
	}
	out := NewMat(len(m.rows), o.cols)
	for i, r := range m.rows {
		dst := out.rows[i]
		for j := r.FirstSet(); j >= 0; j = r.NextSet(j + 1) {
			dst.Xor(o.rows[j])
		}
	}
	return out
}

// Pow computes m^e for e ≥ 0 by binary exponentiation. m must be square.
// Pow(0) is the identity.
func (m Mat) Pow(e uint64) Mat {
	if len(m.rows) != m.cols {
		panic(fmt.Sprintf("gf2: Pow of non-square %d×%d matrix", len(m.rows), m.cols))
	}
	result := Identity(m.cols)
	base := m.Clone()
	for e > 0 {
		if e&1 != 0 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		e >>= 1
	}
	return result
}

// Rank returns the rank of m. The computation works on a copy.
func (m Mat) Rank() int {
	work := m.Clone()
	rank := 0
	for col := 0; col < work.cols && rank < len(work.rows); col++ {
		pivot := -1
		for i := rank; i < len(work.rows); i++ {
			if work.rows[i].Bit(col) != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work.rows[rank], work.rows[pivot] = work.rows[pivot], work.rows[rank]
		for i := 0; i < len(work.rows); i++ {
			if i != rank && work.rows[i].Bit(col) != 0 {
				work.rows[i].Xor(work.rows[rank])
			}
		}
		rank++
	}
	return rank
}

// Inverse returns the inverse of a square matrix and true, or a zero matrix
// and false if m is singular.
func (m Mat) Inverse() (Mat, bool) {
	n := len(m.rows)
	if n != m.cols {
		panic(fmt.Sprintf("gf2: Inverse of non-square %d×%d matrix", n, m.cols))
	}
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		pivot := -1
		for i := col; i < n; i++ {
			if work.rows[i].Bit(col) != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			return Mat{}, false
		}
		work.rows[col], work.rows[pivot] = work.rows[pivot], work.rows[col]
		inv.rows[col], inv.rows[pivot] = inv.rows[pivot], inv.rows[col]
		for i := 0; i < n; i++ {
			if i != col && work.rows[i].Bit(col) != 0 {
				work.rows[i].Xor(work.rows[col])
				inv.rows[i].Xor(inv.rows[col])
			}
		}
	}
	return inv, true
}

// String renders the matrix one row per line.
func (m Mat) String() string {
	var sb strings.Builder
	for i, r := range m.rows {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}
