package gf2

// The naive consistency oracle of the incremental solver. Production code
// tests systems only through CheckRows and ProjectedTable.CheckSystem and
// commits them with Add; these methods re-eliminate every equation against
// the full basis pivot by pivot, so the tests and FuzzSolver compare the
// production paths against them.

// Check tests whether the system eqs is consistent with the basis without
// mutating the basis. It returns the rank increase the system would cause
// and whether it is consistent. Equations within eqs may depend on each
// other; the overlay in scratch tracks that.
//
// Check re-eliminates every equation against the full basis, one pivot
// hit at a time; CheckRows does the same test on rows of a fixed table in
// one pass over each row's hits.
func (s *Solver) Check(eqs []Equation, scratch *CheckScratch) (rankIncrease int, consistent bool) {
	scratch.init(s.n)
	defer scratch.release()
	for _, eq := range eqs {
		dst := scratch.getRow(s.n)
		dst.CopyFrom(eq.Coeffs)
		r := eq.RHS & 1
		// Reduce against the basis, then the overlay. Two phases suffice:
		// overlay rows are stored fully reduced, so XORing them never
		// reintroduces a basis-pivot bit.
		for b := dst.FirstSetAnd(s.piv); b >= 0; b = dst.FirstSetAnd(s.piv) {
			dst.Xor(s.row(b))
			r ^= s.rhs[b]
		}
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

// AddSystem folds a set of equations in atomically: either all equations
// are consistent (some may be dependent) and the basis absorbs them,
// returning (rankIncrease, true) — or the system contradicts the basis and
// the basis is left untouched, returning (0, false).
func (s *Solver) AddSystem(eqs []Equation) (rankIncrease int, consistent bool) {
	var sc CheckScratch
	inc, ok := s.Check(eqs, &sc)
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
		gen:     s.gen,
		scratch: NewVec(s.n),
	}
}
