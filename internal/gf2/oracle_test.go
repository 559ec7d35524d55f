package gf2

import (
	"fmt"
	"math/bits"
)

// The naive consistency oracle of the incremental solver. Production code
// tests systems only through ProjectedTable.CheckSystem and on the basis's
// affine form, and commits them with Add; Check re-eliminates every
// equation against the full basis pivot by pivot, so the tests and
// FuzzSolver compare the production paths against it.

// firstSetAnd returns the index of the lowest bit set in both v and mask,
// or -1 if the intersection is empty. The lengths must match.
func (v Vec) firstSetAnd(mask Vec) int {
	if v.n != mask.n {
		panic(fmt.Sprintf("gf2: firstSetAnd length mismatch %d != %d", v.n, mask.n))
	}
	for i, w := range v.words {
		if x := w & mask.words[i]; x != 0 {
			return i*wordBits + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// Check tests whether the system eqs is consistent with the basis without
// mutating the basis. It returns the rank increase the system would cause
// and whether it is consistent. Equations within eqs may depend on each
// other; a local overlay, keyed by pivot, tracks that. Check allocates.
func (s *Solver) Check(eqs []Equation) (rankIncrease int, consistent bool) {
	overlay := make([]Vec, s.n)
	overlayRHS := make([]uint8, s.n)
	overlayMask := NewVec(s.n)
	for _, eq := range eqs {
		dst := eq.Coeffs.Clone()
		r := eq.RHS & 1
		// Reduce against the basis, then the overlay. Two phases suffice:
		// overlay rows are stored fully reduced, so XORing them never
		// reintroduces a basis-pivot bit.
		for b := dst.firstSetAnd(s.piv); b >= 0; b = dst.firstSetAnd(s.piv) {
			dst.Xor(s.row(b))
			r ^= s.rhs[b]
		}
		for b := dst.firstSetAnd(overlayMask); b >= 0; b = dst.firstSetAnd(overlayMask) {
			dst.Xor(overlay[b])
			r ^= overlayRHS[b]
		}
		if dst.IsZero() {
			if r != 0 {
				return 0, false
			}
			continue
		}
		p := dst.FirstSet()
		overlay[p] = dst
		overlayRHS[p] = r
		overlayMask.SetBit(p, 1)
		rankIncrease++
	}
	return rankIncrease, true
}

// AddSystem folds a set of equations in atomically: either all equations
// are consistent (some may be dependent) and the basis absorbs them,
// returning (rankIncrease, true) — or the system contradicts the basis and
// the basis is left untouched, returning (0, false).
func (s *Solver) AddSystem(eqs []Equation) (rankIncrease int, consistent bool) {
	inc, ok := s.Check(eqs)
	if !ok {
		return 0, false
	}
	for _, eq := range eqs {
		if _, ok := s.Add(eq); !ok {
			// Cannot happen: Check just validated the whole system.
			panic("gf2: AddSystem inconsistency after successful Check")
		}
	}
	return inc, true
}

// Satisfies reports whether the assignment sol satisfies every committed
// constraint.
func (s *Solver) Satisfies(sol Vec) bool {
	if sol.Len() != s.n {
		return false
	}
	for p := 0; p < s.n; p++ {
		if !s.occ[p] {
			continue
		}
		if s.row(p).Dot(sol) != s.rhs[p] {
			return false
		}
	}
	return true
}

// Pivots returns the pivot columns currently in the basis, ascending.
func (s *Solver) Pivots() []int {
	ps := make([]int, 0, s.rank)
	for p := 0; p < s.n; p++ {
		if s.occ[p] {
			ps = append(ps, p)
		}
	}
	return ps
}

// clone returns an independent deep copy of the solver, the oracle a test
// commits to when it must leave the original untouched.
func (s *Solver) clone() *Solver {
	return &Solver{
		n:       s.n,
		words:   s.words,
		basis:   append([]uint64(nil), s.basis...),
		occ:     append([]bool(nil), s.occ...),
		rhs:     append([]uint8(nil), s.rhs...),
		rank:    s.rank,
		piv:     s.piv.Clone(),
		order:   append([]int(nil), s.order...),
		done:    s.done,
		gen:     s.gen,
		scratch: NewVec(s.n),
	}
}
