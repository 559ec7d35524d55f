package gf2

import (
	"fmt"
	"math/bits"
)

// ProjectedFree is the most free variables a basis may have for a
// ProjectedTable to serve it: bits 0…62 of a projected row hold the free
// coordinates and bit 63 the constant.
const ProjectedFree = wordBits - 1

// ProjectedTable caches a RowSet's rows in the free coordinates of a
// solver's basis, one word per row, for bases with at most ProjectedFree
// free variables; the encoder checks classical reseeding (L = 1) on it.
// Bit i of row c's word is c·Gens[i] and bit 63 is c·X0, for the basis's
// affine form (see Affine) when the frame below was fixed. That word is
// c's residual modulo the basis (what reduceInto leaves of it) restricted
// to the free columns, with the folded right-hand side in bit 63: the
// residual is c ⊕ Σ basis rows, zero at
// every pivot column, every basis row is orthogonal to every generator,
// Gens[i] meets the residual's columns only at Free[i], and X0 is zero at
// every free column while each basis row dots X0 to its right-hand side.
// So a system over table rows has the same consistency and rank increase
// in these coordinates as against the basis itself, and every row is one
// word whatever the register width.
//
// The first use in a solver generation fixes the frame: the basis's free
// columns and affine form at that moment. Rows keep the frame's
// coordinates for the rest of the generation. A later pivot is a frame
// column, and its basis row — in reduced row-echelon form, which sync
// asks the solver for, so holding no other pivot — lies in the frame too;
// a row catches up by folding in the projected basis row of each such
// pivot it hits, one word per hit, and the bits of frame columns that
// became pivots stay clear. Rows are projected 64 at a time, the first
// time a block is read in a generation, from its column words
// (RowSet.ColumnsInto) by one XorColumns per generator and a Transpose64;
// each row is caught up when it is read, so a row no check reads is
// never caught up.
//
// CheckSystem writes the table to bring rows current and eliminates in
// the table's own overlay, so a ProjectedTable belongs to one goroutine,
// and must not be used concurrently with basis mutations.
type ProjectedTable struct {
	s     *Solver
	src   RowSet
	cols  []uint64 // block b's N words: ColumnsInto(64b, …) of the source
	rows  []uint64 // projected rows, in the frame of their block's tag
	tag   []uint32 // per block: the frame generation it was projected in; 0 = never
	stamp uint64   // the basis q and pivMask describe: gen<<32 | rank

	// The frame: the affine form fixed by the generation's first use, and
	// index[f], frame column f's bit. pivMask marks the frame bits whose
	// columns are pivots now; q[i] is then that pivot's basis row in frame
	// coordinates with its right-hand side in bit 63.
	frame    Affine
	frameGen uint32
	index    []int
	pivMask  uint64
	q        [ProjectedFree]uint64

	// ov is CheckSystem's overlay: the rows a system adds on top of the
	// basis, keyed by pivot bit. A check reads only the entries its
	// occupancy mask marks as written during that check, so entries left
	// by earlier checks are never seen and never cleared.
	ov [wordBits]uint64
}

// NewProjectedTable attaches a projected copy of src to solver s and
// builds its column arena. The solver must have the same variable count
// as the row width.
func NewProjectedTable(s *Solver, src RowSet) *ProjectedTable {
	if s.n != src.n {
		panic(fmt.Sprintf("gf2: projected table width %d != solver variables %d", src.n, s.n))
	}
	count := src.Count()
	blocks := (count + wordBits - 1) / wordBits
	pt := &ProjectedTable{
		s:     s,
		src:   src,
		cols:  make([]uint64, blocks*s.n),
		rows:  make([]uint64, count),
		tag:   make([]uint32, blocks),
		index: make([]int, s.n),
	}
	for b := 0; b < blocks; b++ {
		first := b * wordBits
		src.ColumnsInto(first, min(wordBits, count-first), pt.cols[b*s.n:(b+1)*s.n])
	}
	return pt
}

// sync brings the frame, pivMask and q to the solver's basis, which it
// brings to reduced row-echelon form. It writes nothing when they are
// current.
func (pt *ProjectedTable) sync() {
	s := pt.s
	stamp := uint64(s.gen)<<32 | uint64(s.rank)
	if pt.stamp == stamp {
		return
	}
	s.normalize()
	if pt.frameGen != s.gen {
		if s.FreeVars() > ProjectedFree {
			panic(fmt.Sprintf("gf2: projected table needs at most %d free variables, basis has %d", ProjectedFree, s.FreeVars()))
		}
		s.AffineInto(&pt.frame)
		for i, f := range pt.frame.Free {
			pt.index[f] = i
		}
		pt.frameGen = s.gen
	}
	pt.pivMask = 0
	w := s.words
	for i, f := range pt.frame.Free {
		if !s.occ[f] {
			continue
		}
		pt.pivMask |= 1 << uint(i)
		q := uint64(s.rhs[f]) << ProjectedFree
		for k, x := range s.basis[f*w : (f+1)*w] {
			for ; x != 0; x &= x - 1 {
				q |= 1 << uint(pt.index[k*wordBits+bits.TrailingZeros64(x)])
			}
		}
		pt.q[i] = q
	}
	pt.stamp = stamp
}

// project writes block blk's rows in the frame's coordinates, from the
// block's column words, and tags the block with the frame's generation.
func (pt *ProjectedTable) project(blk int) {
	col := pt.cols[blk*pt.s.n : (blk+1)*pt.s.n]
	var pl [wordBits]uint64
	for i, g := range pt.frame.Gens {
		pl[i] = XorColumns(col, g.words)
	}
	pl[ProjectedFree] = XorColumns(col, pt.frame.X0.words)
	Transpose64(&pl)
	copy(pt.rows[blk*wordBits:min((blk+1)*wordBits, len(pt.rows))], pl[:])
	pt.tag[blk] = pt.frameGen
}

// catchUp folds into row i the projected basis row of each pivot it hits,
// writes the row back and returns it. A row is clear at the pivots it was
// last caught up to, so its hits are newer pivots only, and folding one
// (a basis row in reduced form, see sync) creates no other hit.
func (pt *ProjectedTable) catchUp(i uint) uint64 {
	x := pt.rows[i]
	for m := x & pt.pivMask; m != 0; m &= m - 1 {
		x ^= pt.q[bits.TrailingZeros64(m)]
	}
	pt.rows[i] = x
	return x
}

// CheckSystem tests whether the system {(src row idx[k]+offset, rhs[k])}
// is consistent with the solver's basis, without mutating the basis, and
// returns the rank increase it would cause. The offset shifts every index
// by the same amount, so a caller probing one cube at successive window
// positions passes the position-0 indices and the position. Every
// equation is one projected word whatever the register width, with the
// right-hand side carried in bit 63, eliminated against the table's
// overlay. The basis must have at most ProjectedFree free variables. It
// allocates nothing.
func (pt *ProjectedTable) CheckSystem(idx []int32, offset int32, rhs []uint8) (rankIncrease int, consistent bool) {
	pt.sync()
	// An equation the basis alone decides (no free coordinate) contradicts
	// the system whatever the other equations are, and costs a compare.
	// Most checks fail on one (97 % of the paper-scale s38417 encode's at
	// L = 1), so test them all before eliminating any. A row read is
	// projected with its block if the block predates the frame, and caught
	// up if it hits a frame column pivoted since.
	tag, rows, gen, pm := pt.tag, pt.rows, pt.frameGen, pt.pivMask
	for k, ri := range idx {
		i := uint(ri + offset)
		if tag[i/wordBits] != gen {
			pt.project(int(i / wordBits))
		}
		x := rows[i]
		if x&pm != 0 {
			x = pt.catchUp(i)
		}
		if x^uint64(rhs[k]&1)<<ProjectedFree == 1<<ProjectedFree {
			return 0, false
		}
	}
	ov := &pt.ov
	var ovMask uint64
	rank := 0
	for k, ri := range idx {
		x := rows[ri+offset] ^ uint64(rhs[k]&1)<<ProjectedFree
		// Overlay rows are only echelon, so a fold can create new hits:
		// recompute the mask after each one.
		for m := x & ovMask; m != 0; m = x & ovMask {
			x ^= ov[bits.TrailingZeros64(m)&63]
		}
		if x<<1 == 0 {
			// No free coordinate left: consistent iff the constant is 0.
			if x != 0 {
				return 0, false
			}
			continue
		}
		p := bits.TrailingZeros64(x) & 63
		ov[p] = x
		ovMask |= 1 << uint(p)
		rank++
	}
	return rank, true
}

// XorColumns returns the XOR of the column words col[j] over the set bits
// j of the support words: with col from RowSet.ColumnsInto, bit b of the
// result is row b's dot product with the support vector.
func XorColumns(col, support []uint64) uint64 {
	var acc uint64
	for k, w := range support {
		for ; w != 0; w &= w - 1 {
			acc ^= col[k*wordBits+bits.TrailingZeros64(w)]
		}
	}
	return acc
}
