package gf2

import (
	"fmt"
	"math/bits"
)

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

// ReducedTable maintains lazily reduced copies of a RowSet's rows against a
// solver's evolving basis, so that consistency checks over table rows cost
// O(rows-in-system) word operations instead of a full O(rank) Gaussian
// re-elimination per row.
//
// For every touched row i it caches the residual C'_i (the source row
// reduced modulo the basis span) and the folded right-hand side δ_i (the
// RHS parity the basis implies for the eliminated combination), so the
// equation (row i, rhs) is consistent iff C'_i ≠ 0 or rhs == δ_i.
//
// Catch-up is incremental and generation-tagged. A cached residual is, by
// construction, clear in every pivot column of the basis that produced it,
// so its intersection with the solver's pivot mask is exactly the set of
// pivots added since — a stale row only folds in those. That is correct
// because the basis is kept in reduced row-echelon form: current basis
// rows have no bits in any other pivot column, so XORing the current row
// of each newly hit pivot yields the residual w.r.t. the new basis; and
// for any solution x of the new system, δ_new = (C ⊕ C'_new)·x = δ_old ⊕
// Σ rhs of the rows folded in (every new-basis solution also satisfies the
// old basis and the added rows). Solver.Reset bumps a generation counter,
// invalidating every cached row at once.
//
// A ReducedTable must not be used concurrently with basis mutations, and a
// single ReducedTable must not be shared between goroutines (catch-up
// mutates the cache).
type ReducedTable struct {
	s       *Solver
	src     RowSet
	words   int
	reduced []uint64 // cached residuals, same layout as src
	delta   []uint8  // folded RHS per row
	gen     []uint32 // solver generation of the cached copy; 0 = never touched
}

// NewReducedTable attaches a lazily reduced copy of src to solver s. The
// solver must have the same variable count as the row width.
func NewReducedTable(s *Solver, src RowSet) *ReducedTable {
	if s.n != src.n {
		panic(fmt.Sprintf("gf2: reduced table width %d != solver variables %d", src.n, s.n))
	}
	count := src.Count()
	return &ReducedTable{
		s:       s,
		src:     src,
		words:   src.words,
		reduced: make([]uint64, len(src.arena)),
		delta:   make([]uint8, count),
		gen:     make([]uint32, count),
	}
}

// Residual brings row i current against the solver's basis and returns its
// cached residual together with the folded right-hand side. The returned
// vector aliases the cache: it is valid until the next Residual or
// CheckSystem call on this table.
func (rt *ReducedTable) Residual(i int) (Vec, uint8) {
	w := rt.words
	cw := rt.reduced[i*w : (i+1)*w]
	if rt.gen[i] != rt.s.gen {
		copy(cw, rt.src.arena[i*w:(i+1)*w])
		rt.delta[i] = 0
		rt.gen[i] = rt.s.gen
	}
	// Masked catch-up on raw words, one pass over the pivot hits. The basis
	// is in reduced row-echelon form: a basis row's lowest set bit is its
	// pivot and it holds no other pivot bit, so folding it clears exactly
	// its own hit and creates none, and the words below its pivot word are
	// zero. Each word's hit mask is therefore final once computed.
	d := rt.delta[i]
	pv := rt.s.piv.words
	for wi := 0; wi < w; wi++ {
		for m := cw[wi] & pv[wi]; m != 0; m &= m - 1 {
			b := wi*wordBits + bits.TrailingZeros64(m)
			row := rt.s.basis[b*w : (b+1)*w]
			for j := wi; j < w; j++ {
				cw[j] ^= row[j]
			}
			d ^= rt.s.rhs[b]
		}
	}
	rt.delta[i] = d
	return VecView(rt.src.n, cw), d
}

// CheckSystem tests whether the system {(src row idx[k]+offset, rhs[k])} is
// consistent with the solver's basis, without mutating it. It returns the
// rank increase the system would cause and whether it is consistent.
//
// Rows already determined by the basis (zero residual) degenerate to a
// word-masked RHS comparison; only rows still carrying free dimensions pay
// for the overlay elimination that tracks dependencies within the system.
// The offset parameter shifts every index by the same amount, so callers
// probing one cube at successive window positions pass the position-0
// indices plus a per-position stride.
//
// Registers of at most 64 and of 65–128 cells run word-specialised
// kernels whose overlay lives in scratch's fixed arrays; wider ones run
// the generic path over scratch's pooled rows. No path allocates once
// scratch has served one check of the table's width.
func (rt *ReducedTable) CheckSystem(idx []int32, offset int32, rhs []uint8, scratch *CheckScratch) (rankIncrease int, consistent bool) {
	switch rt.words {
	case 1:
		return rt.checkSystem1(idx, offset, rhs, scratch)
	case 2:
		return rt.checkSystem2(idx, offset, rhs, scratch)
	}
	n := rt.src.n
	scratch.init(n)
	defer scratch.release()
	for k, ri := range idx {
		cur, delta := rt.Residual(int(ri + offset))
		r := rhs[k]&1 ^ delta
		if cur.IsZero() {
			if r != 0 {
				return 0, false
			}
			continue
		}
		// The residual may still depend on earlier rows of this system:
		// eliminate against the overlay only (the basis part is cached).
		// The fast exit: a residual that hits no overlay pivot is already
		// fully reduced and becomes a pivot itself without being copied.
		if b := cur.FirstSetAnd(scratch.overlayMask); b < 0 {
			// Stored as a view into the cache, not a copy: the overlay is
			// released before this call returns, and within the call only
			// first-touch rows are (re)written — never one already served.
			p := cur.FirstSet()
			scratch.overlay[p] = cur
			scratch.overlayRHS[p] = r
			scratch.overlayMask.SetBit(p, 1)
			scratch.overlaySet = append(scratch.overlaySet, p)
			continue
		}
		dst := scratch.getRow(n)
		dst.CopyFrom(cur)
		for b := dst.FirstSetAnd(scratch.overlayMask); b >= 0; b = dst.FirstSetAnd(scratch.overlayMask) {
			dst.Xor(scratch.overlay[b])
			r ^= scratch.overlayRHS[b]
		}
		if dst.IsZero() {
			if r != 0 {
				return 0, false
			}
			scratch.rowPoolNext-- // recycle immediately
			continue
		}
		p := dst.FirstSet()
		scratch.overlay[p] = dst
		scratch.overlayRHS[p] = r
		scratch.overlayMask.SetBit(p, 1)
		scratch.overlaySet = append(scratch.overlaySet, p)
	}
	return len(scratch.overlaySet), true
}

// checkSystem1 is CheckSystem for registers of at most 64 cells (every
// CI-scale circuit and most of the paper's): rows and pivot masks collapse
// to single words, so one equation is a handful of word operations. The
// overlay rows live in sc.ov1 and only entries under ovMask are read.
func (rt *ReducedTable) checkSystem1(idx []int32, offset int32, rhs []uint8, sc *CheckScratch) (rankIncrease int, consistent bool) {
	s := rt.s
	pv := s.piv.words[0]
	g := s.gen
	ov, ovRHS := &sc.ov1, &sc.ov1RHS
	var ovMask uint64
	rank := 0
	for k, ri := range idx {
		i := int(ri + offset)
		x := rt.reduced[i]
		d := rt.delta[i]
		if rt.gen[i] != g {
			x = rt.src.arena[i]
			d = 0
			rt.gen[i] = g
		}
		// One pass over the pivot hits: RREF basis rows clear their own
		// hit and create none (see Residual).
		for m := x & pv; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			x ^= s.basis[b]
			d ^= s.rhs[b]
		}
		rt.reduced[i] = x
		rt.delta[i] = d
		r := rhs[k]&1 ^ d
		if x == 0 {
			if r != 0 {
				return 0, false
			}
			continue
		}
		// Overlay rows are only echelon, so a fold can create new hits:
		// recompute the mask after each one.
		for m := x & ovMask; m != 0; m = x & ovMask {
			b := bits.TrailingZeros64(m) & 63
			x ^= ov[b]
			r ^= ovRHS[b]
		}
		if x == 0 {
			if r != 0 {
				return 0, false
			}
			continue
		}
		p := bits.TrailingZeros64(x) & 63
		ov[p] = x
		ovRHS[p] = r
		ovMask |= 1 << uint(p)
		rank++
	}
	return rank, true
}

// checkSystem2 is checkSystem1's twin for registers of 65–128 cells (the
// paper's s38417 at n=85): two-word rows and masks, overlay in sc.ov2.
func (rt *ReducedTable) checkSystem2(idx []int32, offset int32, rhs []uint8, sc *CheckScratch) (rankIncrease int, consistent bool) {
	s := rt.s
	pv0, pv1 := s.piv.words[0], s.piv.words[1]
	g := s.gen
	ov, ovRHS := &sc.ov2, &sc.ov2RHS
	var ovMask0, ovMask1 uint64
	rank := 0
	for k, ri := range idx {
		i := int(ri+offset) * 2
		x0, x1 := rt.reduced[i], rt.reduced[i+1]
		d := rt.delta[i/2]
		if rt.gen[i/2] != g {
			x0, x1 = rt.src.arena[i], rt.src.arena[i+1]
			d = 0
			rt.gen[i/2] = g
		}
		// One pass over the pivot hits of each word, both masks taken up
		// front: an RREF basis row creates no hit at another pivot, and a
		// row pivoting in the high word has a zero low word.
		m0, m1 := x0&pv0, x1&pv1
		for ; m0 != 0; m0 &= m0 - 1 {
			b := bits.TrailingZeros64(m0)
			x0 ^= s.basis[b*2]
			x1 ^= s.basis[b*2+1]
			d ^= s.rhs[b]
		}
		for ; m1 != 0; m1 &= m1 - 1 {
			b := wordBits + bits.TrailingZeros64(m1)
			x1 ^= s.basis[b*2+1]
			d ^= s.rhs[b]
		}
		rt.reduced[i], rt.reduced[i+1] = x0, x1
		rt.delta[i/2] = d
		r := rhs[k]&1 ^ d
		if x0 == 0 && x1 == 0 {
			if r != 0 {
				return 0, false
			}
			continue
		}
		for {
			var b int
			if m := x0 & ovMask0; m != 0 {
				b = bits.TrailingZeros64(m)
			} else if m := x1 & ovMask1; m != 0 {
				b = wordBits + bits.TrailingZeros64(m)
			} else {
				break
			}
			x0 ^= ov[b][0]
			x1 ^= ov[b][1]
			r ^= ovRHS[b]
		}
		if x0 == 0 && x1 == 0 {
			if r != 0 {
				return 0, false
			}
			continue
		}
		var p int
		if x0 != 0 {
			p = bits.TrailingZeros64(x0)
			ovMask0 |= 1 << uint(p)
		} else {
			p = wordBits + bits.TrailingZeros64(x1)
			ovMask1 |= 1 << uint(p-wordBits)
		}
		ov[p] = [2]uint64{x0, x1}
		ovRHS[p] = r
		rank++
	}
	return rank, true
}
