package gf2

import (
	"testing"

	"repro/internal/prng"
)

// denseEliminator is the kept naive reference for the incremental solver: a
// plain dense Gaussian eliminator that re-reduces the entire committed
// system from scratch on every query. No RREF maintenance, no pivot
// indexing, no overlay, no caching — just triangular elimination in input
// order, so any bookkeeping bug in Solver or ProjectedTable diverges from
// it.
type denseEliminator struct {
	n         int
	committed []Equation
}

// eliminate runs forward elimination over eqs and returns the rank and
// whether the system is consistent.
func (d *denseEliminator) eliminate(eqs []Equation) (rank int, consistent bool) {
	var rows []Vec
	var rhs []uint8
	for _, eq := range eqs {
		v := eq.Coeffs.Clone()
		r := eq.RHS & 1
		for i, row := range rows {
			p := row.FirstSet()
			if v.Bit(p) != 0 {
				v.Xor(row)
				r ^= rhs[i]
			}
		}
		if v.IsZero() {
			if r != 0 {
				return rank, false
			}
			continue
		}
		rows = append(rows, v)
		rhs = append(rhs, r)
		rank++
	}
	return rank, true
}

// check reports what committing sys on top of the committed equations would
// do: the rank increase and the consistency verdict.
func (d *denseEliminator) check(sys []Equation) (rankInc int, consistent bool) {
	base, ok := d.eliminate(d.committed)
	if !ok {
		panic("gf2: dense reference holds an inconsistent committed system")
	}
	all, ok := d.eliminate(append(append([]Equation(nil), d.committed...), sys...))
	if !ok {
		return 0, false // rank increase is only defined for consistent systems
	}
	return all - base, true
}

// satisfies evaluates every committed equation directly against sol.
func (d *denseEliminator) satisfies(sol Vec) bool {
	for _, eq := range d.committed {
		if eq.Coeffs.Dot(sol) != eq.RHS&1 {
			return false
		}
	}
	return true
}

// FuzzSolver cross-checks the incremental solver, its naive Check and,
// once a basis has at most ProjectedFree free variables, its projected
// rows against the dense reference: for fuzzed row tables
// and adversarial check/commit/reset interleavings, the consistency
// verdict, the rank increase and the produced solution must all agree.
// After every commit the basis's affine form (AffineInto) must describe
// its solutions, and every projected row must equal its residual on the
// frame's columns (projectedError).
func FuzzSolver(f *testing.F) {
	f.Add([]byte{11, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{1, 1, 0, 0, 9, 9, 9, 9, 200, 200, 1, 2, 3})
	f.Add([]byte{32, 24, 250, 249, 248, 5, 0, 17, 33, 65, 129, 255, 7, 7, 7, 120, 64, 32})
	f.Add([]byte{90, 16, 4, 4, 4, 4, 9, 9, 9, 9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		// n spans both register classes the encoder specialises for:
		// single-word (n ≤ 64) and two-word (65–96) rows.
		n := 1 + int(data[0])%96
		count := 1 + int(data[1])%24
		var seed uint64
		for _, b := range data[2:10] {
			seed = seed<<8 | uint64(b)
		}
		ops := data[10:]
		src := prng.New(seed)

		// The shared row table, as one arena (mirroring the encoder's
		// symbolic ExprTable).
		arena := make([]uint64, count*wordsFor(n))
		rs := NewRowSet(n, arena)
		eqs := make([]Equation, count)
		for i := range eqs {
			row := rs.Row(i)
			for b := 0; b < n; b++ {
				row.SetBit(b, src.Bit())
			}
			eqs[i] = Equation{Coeffs: row, RHS: src.Bit()}
		}

		s := NewSolver(n)
		pt := NewProjectedTable(s, rs)
		all := make([]int, count)
		for i := range all {
			all[i] = i
		}
		ref := &denseEliminator{n: n}
		var aff Affine

		pos := 0
		next := func() byte {
			if pos >= len(ops) {
				pos = 0 // cycle; op streams shorter than the walk just repeat
			}
			b := ops[pos]
			pos++
			return b
		}
		steps := 4 + len(ops)
		if steps > 80 {
			steps = 80
		}
		for step := 0; step < steps; step++ {
			op := next()
			if op%16 == 0 {
				s.Reset()
				ref.committed = ref.committed[:0]
				continue
			}
			// Pick a subsystem by row index; duplicates are allowed and must
			// be handled identically by every engine.
			k := 1 + int(next())%6
			idx := make([]int32, k)
			rhs := make([]uint8, k)
			sys := make([]Equation, k)
			for i := 0; i < k; i++ {
				ri := int(next()) % count
				idx[i] = int32(ri)
				rhs[i] = eqs[ri].RHS
				sys[i] = eqs[ri]
			}
			wantInc, wantOK := ref.check(sys)
			gotInc, gotOK := s.Check(sys)
			if gotInc != wantInc || gotOK != wantOK {
				t.Fatalf("step %d: Check (%d,%v) != dense (%d,%v)", step, gotInc, gotOK, wantInc, wantOK)
			}
			if s.FreeVars() <= ProjectedFree {
				projInc, projOK := pt.CheckSystem(idx, 0, rhs)
				if projInc != gotInc || projOK != gotOK {
					t.Fatalf("step %d: projected CheckSystem (%d,%v) != Check (%d,%v)", step, projInc, projOK, gotInc, gotOK)
				}
			}
			if wantOK && op%4 == 1 {
				inc, ok := s.AddSystem(sys)
				if !ok || inc != wantInc {
					t.Fatalf("step %d: AddSystem (%d,%v) after Check said (%d,true)", step, inc, ok, wantInc)
				}
				if err := basisRREFError(s); err != nil {
					t.Fatalf("step %d: basis not in RREF: %v", step, err)
				}
				if err := affineError(s, &aff, src); err != nil {
					t.Fatalf("step %d: affine form: %v", step, err)
				}
				if s.FreeVars() <= ProjectedFree {
					if err := projectedError(pt, all); err != nil {
						t.Fatalf("step %d: projected rows: %v", step, err)
					}
				}
				ref.committed = append(ref.committed, sys...)
				wantRank, _ := ref.eliminate(ref.committed)
				if s.Rank() != wantRank {
					t.Fatalf("step %d: rank %d != dense %d", step, s.Rank(), wantRank)
				}
			}
		}
		sol := s.Solution(func(int) uint8 { return src.Bit() })
		if !s.Satisfies(sol) {
			t.Fatal("solution violates the solver's own basis")
		}
		if !ref.satisfies(sol) {
			t.Fatal("solution violates the dense reference's committed equations")
		}
	})
}
