package gf2

import (
	"fmt"
	"math/bits"
)

// Equation is one linear constraint over n seed variables:
// Coeffs·a = RHS, where a is the vector of variables.
//
// Coeffs is treated as read-only by the solver; callers may share one Vec
// between many equations (e.g. the precomputed symbolic output table of an
// LFSR + phase shifter).
type Equation struct {
	Coeffs Vec   // coefficient of each seed variable, one bit per variable
	RHS    uint8 // right-hand side, 0 or 1
}

// Solver is an incremental Gaussian eliminator over GF(2).
//
// It maintains a basis of constraint rows in reduced row-echelon form, keyed
// by pivot column (the lowest set coefficient bit of each row). CheckRows
// tests a system drawn from a fixed row table for consistency against the
// current basis without mutating it; Add folds one constraint in
// permanently.
//
// The basis lives in one contiguous word arena (row p at word offset
// p·words) with a pivot-column mask, so a row is reduced in one pass over
// its pivot hits instead of walking every set bit of a dense row. Reset
// bumps a generation counter, by which an attached ProjectedTable notices
// that its frame is stale.
//
// This is the engine behind LFSR reseeding: each specified bit of a test
// cube contributes one Equation relating the LFSR seed variables, and a cube
// is encodable at a window position iff the resulting system is consistent
// with everything already committed to the seed.
type Solver struct {
	n     int
	words int
	basis []uint64 // n rows × words; row p at [p*words : (p+1)*words]
	occ   []bool   // occ[p]: basis row with pivot p present
	rhs   []uint8  // rhs[p] is the right-hand side of row p
	rank  int
	piv   Vec    // mask of occupied pivot columns, for masked elimination
	order []int  // occupied pivots in insertion order, the rows Add back-substitutes into
	gen   uint32 // bumped by Reset, so a ProjectedTable rebuilds its frame lazily

	scratch Vec // reusable reduction buffer for Add
}

// NewSolver returns an empty solver over n variables.
func NewSolver(n int) *Solver {
	if n <= 0 {
		panic(fmt.Sprintf("gf2: solver needs at least one variable, got %d", n))
	}
	w := wordsFor(n)
	return &Solver{
		n:       n,
		words:   w,
		basis:   make([]uint64, n*w),
		occ:     make([]bool, n),
		rhs:     make([]uint8, n),
		piv:     NewVec(n),
		gen:     1,
		scratch: NewVec(n),
	}
}

// N returns the number of variables.
func (s *Solver) N() int { return s.n }

// Rank returns the number of independent constraints committed so far.
func (s *Solver) Rank() int { return s.rank }

// FreeVars returns the number of still-unconstrained dimensions (n - rank).
func (s *Solver) FreeVars() int { return s.n - s.rank }

// row returns the arena-backed view of the basis row with pivot p. Valid
// only when occ[p].
func (s *Solver) row(p int) Vec {
	return VecView(s.n, s.basis[p*s.words:(p+1)*s.words])
}

// Reset discards all constraints. An attached ProjectedTable notices
// through the generation counter and rebuilds its frame on its next check.
func (s *Solver) Reset() {
	for i := range s.occ {
		s.occ[i] = false
		s.rhs[i] = 0
	}
	s.rank = 0
	s.piv.Zero()
	s.order = s.order[:0]
	s.gen++
}

// reduceInto copies eq into dst (which must be an n-bit scratch vector) and
// reduces it against the basis. It returns the reduced RHS. After the call,
// dst holds the reduced coefficients; if dst is zero the equation is
// dependent (consistent iff returned rhs is 0), otherwise dst.FirstSet() is
// a fresh pivot.
func (s *Solver) reduceInto(dst Vec, eq Equation) uint8 {
	dst.CopyFrom(eq.Coeffs)
	r := eq.RHS & 1
	// Masked elimination, one pass over the pivot hits: every basis row
	// has its pivot as lowest set bit and no other pivot bits (RREF), so
	// each XOR clears exactly its own hit, creates none, and leaves the
	// words below its pivot alone. Hit masks are therefore final once
	// computed; CheckRows' word kernels fold the same way.
	w, x := s.words, dst.words
	for wi, pv := range s.piv.words {
		for m := x[wi] & pv; m != 0; m &= m - 1 {
			b := wi*wordBits + bits.TrailingZeros64(m)
			for j, rw := range s.basis[b*w+wi : (b+1)*w] {
				x[wi+j] ^= rw
			}
			r ^= s.rhs[b]
		}
	}
	return r
}

// Add folds one equation into the basis. It returns (added, consistent):
// added is true when the equation was independent and increased the rank;
// consistent is false when the equation contradicts the basis (in which
// case the basis is left unchanged).
func (s *Solver) Add(eq Equation) (added, consistent bool) {
	r := s.reduceInto(s.scratch, eq)
	if s.scratch.IsZero() {
		return false, r == 0
	}
	p := s.scratch.FirstSet()
	// Keep reduced row-echelon form: clear the new pivot from all existing
	// rows so Solution extraction stays a single pass. The new row is zero
	// below its pivot word. About half the rows hold the pivot, so the fold
	// is masked rather than branched on.
	w, pw, sh := s.words, p/wordBits, uint(p%wordBits)
	x := s.scratch.words[pw:]
	for _, q := range s.order {
		row := s.basis[q*w+pw : (q+1)*w]
		m := -(row[0] >> sh & 1)
		for j, xw := range x {
			row[j] ^= xw & m
		}
		s.rhs[q] ^= r & uint8(m)
	}
	copy(s.basis[p*w:(p+1)*w], s.scratch.words)
	s.occ[p] = true
	s.piv.SetBit(p, 1)
	s.rhs[p] = r
	s.rank++
	s.order = append(s.order, p)
	return true, true
}

// CheckRows tests whether the system {(row idx[k]+offset of rows, rhs[k])}
// is consistent with the basis, without mutating it. It returns the rank
// increase the system would cause and whether it is consistent. The offset
// shifts every index by the same amount, so callers probing one cube at
// successive window positions pass the position-0 indices plus a
// per-position stride.
//
// Each source row is reduced in one pass over its pivot hits, as
// reduceInto does, then against the overlay of the system's earlier rows.
// An empty basis (a fresh seed) has no hits, so the row is read as is.
// Registers of at most 64 and of 65–128 cells run word-specialised kernels
// whose overlay lives in sc's fixed arrays; wider ones run the generic
// path over sc's pooled rows. No path allocates once sc has served one
// check of the solver's width.
func (s *Solver) CheckRows(rows RowSet, idx []int32, offset int32, rhs []uint8, sc *CheckScratch) (rankIncrease int, consistent bool) {
	if rows.n != s.n {
		panic(fmt.Sprintf("gf2: row width %d != solver variables %d", rows.n, s.n))
	}
	switch s.words {
	case 1:
		return s.checkRows1(rows.arena, idx, offset, rhs, sc)
	case 2:
		return s.checkRows2(rows.arena, idx, offset, rhs, sc)
	}
	sc.init(s.n)
	defer sc.release()
	for k, ri := range idx {
		dst := sc.getRow(s.n)
		r := s.reduceInto(dst, Equation{Coeffs: rows.Row(int(ri + offset)), RHS: rhs[k]})
		// The residual may still depend on earlier rows of this system.
		for b := dst.FirstSetAnd(sc.overlayMask); b >= 0; b = dst.FirstSetAnd(sc.overlayMask) {
			dst.Xor(sc.overlay[b])
			r ^= sc.overlayRHS[b]
		}
		if dst.IsZero() {
			if r != 0 {
				return 0, false
			}
			sc.rowPoolNext-- // recycle immediately
			continue
		}
		p := dst.FirstSet()
		sc.overlay[p] = dst
		sc.overlayRHS[p] = r
		sc.overlayMask.SetBit(p, 1)
		sc.overlaySet = append(sc.overlaySet, p)
	}
	return len(sc.overlaySet), true
}

// checkRows1 is CheckRows for registers of at most 64 cells (every
// CI-scale circuit and most of the paper's): rows and pivot masks collapse
// to single words, so one equation is a handful of word operations. The
// overlay rows live in sc.ov1 and only entries under ovMask are read.
func (s *Solver) checkRows1(arena []uint64, idx []int32, offset int32, rhs []uint8, sc *CheckScratch) (rankIncrease int, consistent bool) {
	pv := s.piv.words[0]
	ov, ovRHS := &sc.ov1, &sc.ov1RHS
	var ovMask uint64
	rank := 0
	for k, ri := range idx {
		x := arena[ri+offset]
		r := rhs[k] & 1
		for m := x & pv; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			x ^= s.basis[b]
			r ^= s.rhs[b]
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

// checkRows2 is checkRows1's twin for registers of 65–128 cells (the
// paper's s38417 at n=85): two-word rows and masks, overlay in sc.ov2.
func (s *Solver) checkRows2(arena []uint64, idx []int32, offset int32, rhs []uint8, sc *CheckScratch) (rankIncrease int, consistent bool) {
	pv0, pv1 := s.piv.words[0], s.piv.words[1]
	ov, ovRHS := &sc.ov2, &sc.ov2RHS
	var ovMask0, ovMask1 uint64
	rank := 0
	for k, ri := range idx {
		i := int(ri+offset) * 2
		x0, x1 := arena[i], arena[i+1]
		r := rhs[k] & 1
		// One pass over the pivot hits of each word, both masks taken up
		// front: an RREF basis row creates no hit at another pivot, and a
		// row pivoting in the high word has a zero low word.
		m0, m1 := x0&pv0, x1&pv1
		for ; m0 != 0; m0 &= m0 - 1 {
			b := bits.TrailingZeros64(m0)
			x0 ^= s.basis[b*2]
			x1 ^= s.basis[b*2+1]
			r ^= s.rhs[b]
		}
		for ; m1 != 0; m1 &= m1 - 1 {
			b := wordBits + bits.TrailingZeros64(m1)
			x1 ^= s.basis[b*2+1]
			r ^= s.rhs[b]
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

// CheckScratch holds the elimination buffers of Solver.CheckRows and
// ProjectedTable.CheckSystem, so that hot candidate scans allocate nothing
// after warm-up and clear nothing per check. The 1-word and 2-word kernels
// keep their overlay (the rows a system adds on top of the basis, keyed by
// pivot) in the fixed arrays below, and read only the entries their
// occupancy mask marks as written during the current check, so entries
// left by earlier checks are never seen and never zeroed. Wider registers
// use the pooled n-bit rows; ProjectedTable.CheckSystem uses the 1-word
// overlay at every width. A CheckScratch must not be shared between
// goroutines; give each worker its own.
type CheckScratch struct {
	ov1    [64]uint64     // 1-word overlay rows by pivot
	ov1RHS [64]uint8      // their right-hand sides
	ov2    [128][2]uint64 // 2-word overlay rows by pivot
	ov2RHS [128]uint8     // their right-hand sides

	overlay     []Vec   // overlay rows keyed by pivot, lazily sized to n
	overlayRHS  []uint8 // RHS of overlay rows
	overlaySet  []int   // pivots currently occupied in overlay
	overlayMask Vec     // mask of occupied overlay pivots
	rowPool     []Vec   // recycled n-bit vectors
	rowPoolNext int
}

func (sc *CheckScratch) init(n int) {
	if len(sc.overlay) < n {
		sc.overlay = make([]Vec, n)
		sc.overlayRHS = make([]uint8, n)
	}
	if sc.overlayMask.Len() != n {
		sc.overlayMask = NewVec(n)
	}
	sc.overlaySet = sc.overlaySet[:0]
	sc.rowPoolNext = 0
}

// release clears the overlay occupancy left by one generic-width check.
func (sc *CheckScratch) release() {
	for _, p := range sc.overlaySet {
		sc.overlay[p] = Vec{}
		sc.overlayMask.SetBit(p, 0)
	}
}

func (sc *CheckScratch) getRow(n int) Vec {
	if sc.rowPoolNext < len(sc.rowPool) {
		v := sc.rowPool[sc.rowPoolNext]
		sc.rowPoolNext++
		v.Zero()
		return v
	}
	v := NewVec(n)
	sc.rowPool = append(sc.rowPool, v)
	sc.rowPoolNext = len(sc.rowPool)
	return v
}

// Solution produces one full assignment of the n variables satisfying every
// committed constraint. Free variables are assigned by fillFree (called with
// the variable index); pass a deterministic PRNG-backed function for
// reproducible pseudorandom fill, or func(int) uint8 { return 0 } for the
// minimal solution.
func (s *Solver) Solution(fillFree func(varIdx int) uint8) Vec {
	sol := NewVec(s.n)
	// Assign free variables first.
	for i := 0; i < s.n; i++ {
		if !s.occ[i] {
			sol.SetBit(i, fillFree(i)&1)
		}
	}
	// Pivot variables follow directly from the RREF rows:
	// row = pivot + Σ free terms, so a_p = rhs ⊕ Σ a_free.
	for p := 0; p < s.n; p++ {
		if !s.occ[p] {
			continue
		}
		row := s.row(p)
		v := s.rhs[p]
		for b := row.NextSet(p + 1); b >= 0; b = row.NextSet(b + 1) {
			v ^= sol.Bit(b)
		}
		sol.SetBit(p, v)
	}
	return sol
}

// Affine is a basis's solution space in free-variable coordinates. Every
// solution is X0 ⊕ Σ t_i·Gens[i], one t_i per free column Free[i], and
// every choice of t gives one: X0 is the zero-fill solution (free
// variables 0, each pivot variable its row's right-hand side), and
// Gens[i] is the null-space generator e_f ⊕ Σ e_p of free column
// f = Free[i], over the pivots p whose basis row holds f. So
// Solution(fill) = X0 ⊕ Σ fill(Free[i])·Gens[i], and an equation a·x = c
// becomes Σ t_i·(a·Gens[i]) = c ⊕ a·X0. Fill one with Solver.AffineInto.
type Affine struct {
	Free []int // free columns, ascending
	Gens []Vec // Gens[i] generates along Free[i]
	X0   Vec   // the zero-fill solution

	arena []uint64 // generator words; Gens are views into it
	index []int    // free column → its position in Free
}

// AffineInto writes the basis's solution space into a, reusing a's storage
// from earlier calls, so repeated calls on one solver allocate nothing.
// The basis is in reduced row-echelon form, so a pivot row holds its pivot
// and free columns only: one pass over each row's words places the pivot
// in the generator of every free column it holds.
func (s *Solver) AffineInto(a *Affine) {
	w := s.words
	if len(a.arena) != s.n*w || a.X0.Len() != s.n {
		a.arena = make([]uint64, s.n*w)
		a.index = make([]int, s.n)
		a.X0 = NewVec(s.n)
		a.Free, a.Gens = nil, nil
	}
	a.Free, a.Gens = a.Free[:0], a.Gens[:0]
	a.X0.Zero()
	for f, occ := range s.occ {
		if !occ {
			i := len(a.Free)
			g := VecView(s.n, a.arena[i*w:(i+1)*w])
			g.Zero()
			g.words[f/wordBits] = 1 << uint(f%wordBits)
			a.index[f] = i
			a.Free = append(a.Free, f)
			a.Gens = append(a.Gens, g)
		}
	}
	for p, occ := range s.occ {
		if !occ {
			continue
		}
		pw, pb := p/wordBits, uint64(1)<<uint(p%wordBits)
		if s.rhs[p] != 0 {
			a.X0.words[pw] |= pb
		}
		for k, x := range s.basis[p*w : (p+1)*w] {
			if k == pw {
				x &^= pb
			}
			for ; x != 0; x &= x - 1 {
				f := k*wordBits + bits.TrailingZeros64(x)
				a.arena[a.index[f]*w+pw] |= pb
			}
		}
	}
}
