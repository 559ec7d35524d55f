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
// by pivot column (the lowest set coefficient bit of each row). Add is the
// only way a constraint enters the basis: it folds one in permanently, or
// reports the contradiction and leaves the basis as it was. A system is
// tested without mutating the basis on an attached ProjectedTable, or on
// the basis's affine form (AffineInto); a caller probing an empty basis
// adds the system's equations and resets on a contradiction.
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
	// computed.
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
