package gf2

import (
	"fmt"
	"testing"

	"repro/internal/prng"
)

// row reads row i as CheckSystem does: it brings the frame to the
// solver's basis, projects the row's block if the block predates the
// frame, and catches the row up.
func (pt *ProjectedTable) row(i int) uint64 {
	pt.sync()
	if pt.tag[i/wordBits] != pt.frameGen {
		pt.project(i / wordBits)
	}
	return pt.catchUp(uint(i))
}

// projectedError checks the identity ProjectedTable rests on for every row
// of pt's source: its projected word, in the coordinates of the
// generation's frame, equals the row's residual modulo the basis
// (reduceInto on the source row) restricted to the frame's columns, bit 63
// equals the folded right-hand side, and the bits past the frame are
// clear. Rows are read in the order given, so a caller can leave blocks
// stale across several commits before reading them.
func projectedError(pt *ProjectedTable, order []int) error {
	res := NewVec(pt.s.n)
	for _, i := range order {
		got := pt.row(i)
		delta := pt.s.reduceInto(res, Equation{Coeffs: pt.src.Row(i)})
		want := uint64(delta) << ProjectedFree
		for b, f := range pt.frame.Free {
			want |= uint64(res.Bit(f)) << uint(b)
		}
		if got != want {
			return fmt.Errorf("row %d: projected %#x, want %#x (frame of %d columns, %d free now)",
				i, got, want, len(pt.frame.Free), pt.s.FreeVars())
		}
	}
	return nil
}

// TestProjectedMatchesResidual is the differential test of the projected
// rows. On random bases at register widths of one, two and three words,
// from the first basis with at most ProjectedFree free variables to full
// rank and over two generations, every row's projected word must equal
// its residual on the frame's columns with the folded right-hand
// side in bit 63 (projectedError), whether read right after each commit
// or left stale over several. ProjectedTable.CheckSystem must agree with
// the naive Solver.Check on random subsystems, and the rank increase it
// reports for a committed system must be the one adding it causes.
func TestProjectedMatchesResidual(t *testing.T) {
	for _, n := range []int{24, 64, 85, 130} {
		src := prng.New(uint64(n) * 11)
		const count = 150 // two full blocks and a partial one
		rs, eqs := randRowSet(src, n, count)
		s := NewSolver(n)
		pt := NewProjectedTable(s, rs)
		all := src.Perm(count)
		for round := 0; round < 2; round++ {
			s.Reset()
			hidden := randVec(src, n)
			for s.FreeVars() > ProjectedFree {
				c := randVec(src, n)
				s.Add(Equation{Coeffs: c, RHS: c.Dot(hidden)})
			}
			for step := 0; s.FreeVars() > 0; step++ {
				order := all
				if step%3 != 2 {
					order = all[:src.Intn(count/4)] // the rest go stale
				}
				if err := projectedError(pt, order); err != nil {
					t.Fatalf("n=%d round %d step %d: %v", n, round, step, err)
				}
				k := 1 + src.Intn(8)
				idx := make([]int32, k)
				rhs := make([]uint8, k)
				sys := make([]Equation, k)
				for i := range idx {
					ri := src.Intn(count)
					idx[i] = int32(ri)
					rhs[i] = eqs[ri].RHS
					if src.Intn(4) != 0 {
						rhs[i] = eqs[ri].Coeffs.Dot(hidden)
					}
					sys[i] = Equation{Coeffs: rs.Row(ri), RHS: rhs[i]}
				}
				wantInc, wantOK := s.Check(sys)
				gotInc, gotOK := pt.CheckSystem(idx, 0, rhs)
				if gotInc != wantInc || gotOK != wantOK {
					t.Fatalf("n=%d round %d step %d: projected check (%d,%v), Check (%d,%v)",
						n, round, step, gotInc, gotOK, wantInc, wantOK)
				}
				if !wantOK {
					// Move on with one hidden-consistent row instead.
					idx, rhs = idx[:1], rhs[:1]
					rhs[0] = eqs[idx[0]].Coeffs.Dot(hidden)
				}
				inc, ok := pt.CheckSystem(idx, 0, rhs)
				before := s.rank
				for i, ri := range idx {
					s.Add(Equation{Coeffs: rs.Row(int(ri)), RHS: rhs[i]})
				}
				if !ok || inc != s.rank-before {
					t.Fatalf("n=%d round %d step %d: projected check (%d,%v), commit raised the rank by %d",
						n, round, step, inc, ok, s.rank-before)
				}
				// The committed rows need not hold at hidden: move it onto
				// the new basis.
				hidden = s.Solution(func(int) uint8 { return src.Bit() })
				if s.FreeVars() > 0 && src.Intn(3) == 0 {
					// A commit the projected table never sees.
					c := randVec(src, n)
					s.Add(Equation{Coeffs: c, RHS: c.Dot(hidden)})
				}
			}
			if err := projectedError(pt, all); err != nil {
				t.Fatalf("n=%d round %d full rank: %v", n, round, err)
			}
		}
	}
}

// TestProjectedNoAllocs guards the classical-reseeding hot path: after
// warm-up, a projected check allocates nothing, nor does a commit of table
// rows followed by the check that catches the projected rows up, at one-,
// two- and three-word register widths.
func TestProjectedNoAllocs(t *testing.T) {
	for _, n := range []int{24, 85, 130} {
		src := prng.New(uint64(n) + 5)
		hidden := randVec(src, n)
		const spec = 20
		rs, eqs := randRowSet(src, n, 4*spec)
		base := make([]Equation, 0, n)
		for s := NewSolver(n); s.FreeVars() > ProjectedFree/2; {
			c := randVec(src, n)
			if added, _ := s.Add(Equation{Coeffs: c, RHS: c.Dot(hidden)}); added {
				base = append(base, Equation{Coeffs: c, RHS: c.Dot(hidden)})
			}
		}
		idx := make([]int32, spec)
		rhs := make([]uint8, spec)
		for i := range idx {
			idx[i] = int32(i)
		}
		s := NewSolver(n)
		pt := NewProjectedTable(s, rs)
		off := int32(0)
		system := func() {
			off = (off + 1) % (3 * spec)
			for i := range rhs {
				rhs[i] = eqs[int(off)+i].Coeffs.Dot(hidden)
			}
		}
		check := func() {
			system()
			if _, ok := pt.CheckSystem(idx, off, rhs); !ok {
				t.Fatalf("n=%d: consistent system rejected", n)
			}
		}
		commit := func() {
			s.Reset()
			for _, eq := range base {
				s.Add(eq)
			}
			check()
			before := s.Rank()
			for i, ri := range idx {
				s.Add(Equation{Coeffs: rs.Row(int(ri + off)), RHS: rhs[i]})
			}
			if s.Rank() == before {
				t.Fatalf("n=%d: commit added nothing", n)
			}
			check()
		}
		commit()
		if allocs := testing.AllocsPerRun(50, check); allocs != 0 {
			t.Errorf("n=%d: projected CheckSystem allocates %.1f times per check", n, allocs)
		}
		if allocs := testing.AllocsPerRun(50, commit); allocs != 0 {
			t.Errorf("n=%d: projected commit allocates %.1f times per commit", n, allocs)
		}
	}
}
