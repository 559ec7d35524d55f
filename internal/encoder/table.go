// Package encoder implements window-based LFSR reseeding for pre-computed
// test sets (Section 2 of the paper).
//
// Each n-bit seed loaded into the LFSR expands into a window of L test
// vectors. Every bit any window vector feeds into a scan cell is a linear
// expression of the n seed variables, so a test cube is encodable at window
// position v iff the linear system equating those expressions with the
// cube's specified bits is consistent. The encoder packs as many cubes as
// possible into each seed using the greedy criteria of the paper:
//
//  1. among solvable systems, prefer cubes with the most specified bits;
//  2. then systems whose solution replaces the fewest free variables;
//  3. then cubes encodable at the fewest remaining window positions;
//  4. then the position nearest the start of the window.
//
// Classical reseeding (one vector per seed) is the special case L = 1.
package encoder

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/scan"
)

// ExprTable holds, for every window position and cube bit position, the
// linear expression (over the n seed variables) that the decompressor
// produces there. It is an immutable snapshot over the arena of a Tables
// value, laid out position-minor: a window vector is loaded by
// Length·Chains output slots, slot s = t·m+ch being chain ch at shift clock
// t of the vector, and the expression of slot s at window position p is
// row s·L+p of the row set. One cube bit probed at successive window
// positions therefore reads successive rows. Built once per (LFSR, phase
// shifter, geometry, L) and shared by every seed computation.
type ExprTable struct {
	L   int           // window length: vectors per seed
	N   int           // LFSR size: seed variables per expression
	Geo scan.Geometry // scan geometry the expressions feed

	rows gf2.RowSet
}

// Rows exposes the expression arena as an indexed row set of
// L·Length·Chains rows; row s·L+p is the expression of output slot s at
// window position p.
func (t *ExprTable) Rows() gf2.RowSet { return t.rows }

// Expr returns the seed-variable expression of cube bit position pos within
// window vector v. The returned vector is a read-only view; do not modify.
func (t *ExprTable) Expr(v, pos int) gf2.Vec {
	if v < 0 || v >= t.L {
		panic(fmt.Sprintf("encoder: window position %d out of range [0,%d)", v, t.L))
	}
	return t.rows.Row(t.Slot(pos)*t.L + v)
}

// Slot returns the output slot that loads cube bit position pos: chain
// ch's output at shift clock t of a vector load is slot t·Chains + ch.
func (t *ExprTable) Slot(pos int) int {
	ch, depth := t.Geo.Cell(pos)
	return t.Geo.ShiftCycle(depth)*t.Geo.Chains + ch
}

// ColumnBlocks transposes the table into column blocks of 64 window
// positions: block s·W + w, with W = ⌈L/64⌉, is N words long and holds in
// word j column j of output slot s's rows at window positions 64w …
// 64w+63, with the bits of positions at or past L clear. XORing a block's
// words over the support of a seed (gf2.XorColumns) then gives that slot's
// bits at those 64 positions of the seed's window in one word.
func (t *ExprTable) ColumnBlocks() []uint64 {
	W, n := (t.L+63)/64, t.N
	slots := t.rows.Count() / t.L
	cols := make([]uint64, slots*W*n)
	for s := 0; s < slots; s++ {
		for w := 0; w < W; w++ {
			blk := s*W + w
			t.rows.ColumnsInto(s*t.L+w*64, min(64, t.L-w*64), cols[blk*n:(blk+1)*n])
		}
	}
	return cols
}
