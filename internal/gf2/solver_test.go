package gf2

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func eq(coeffs string, rhs uint8) Equation {
	v, err := FromString(coeffs)
	if err != nil {
		panic(err)
	}
	return Equation{Coeffs: v, RHS: rhs}
}

func TestSolverBasicConsistency(t *testing.T) {
	s := NewSolver(3)
	// a0 ^ a1 = 1
	if added, ok := s.Add(eq("110", 1)); !added || !ok {
		t.Fatal("first equation rejected")
	}
	// a1 ^ a2 = 0
	if added, ok := s.Add(eq("011", 0)); !added || !ok {
		t.Fatal("second equation rejected")
	}
	// dependent: a0 ^ a2 = 1 (sum of the two)
	if added, ok := s.Add(eq("101", 1)); added || !ok {
		t.Fatalf("dependent consistent equation mishandled: added=%v ok=%v", added, ok)
	}
	// contradictory: a0 ^ a2 = 0
	if _, ok := s.Add(eq("101", 0)); ok {
		t.Fatal("contradiction accepted")
	}
	if s.Rank() != 2 {
		t.Errorf("rank = %d, want 2", s.Rank())
	}
	sol := s.Solution(func(int) uint8 { return 0 })
	if sol.Bit(0)^sol.Bit(1) != 1 || sol.Bit(1)^sol.Bit(2) != 0 {
		t.Errorf("solution %v violates constraints", sol)
	}
}

func TestSolverSolutionSatisfies(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 20
		s := NewSolver(n)
		// Generate a known satisfiable system: pick a hidden assignment and
		// derive equations from it.
		hidden := randVec(src, n)
		for i := 0; i < 15; i++ {
			coeffs := randVec(src, n)
			s.Add(Equation{Coeffs: coeffs, RHS: coeffs.Dot(hidden)})
		}
		sol := s.Solution(func(int) uint8 { return src.Bit() })
		return s.Satisfies(sol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolverHiddenAssignmentAlwaysConsistent(t *testing.T) {
	// Equations all derived from one hidden assignment can never contradict.
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 24
		s := NewSolver(n)
		hidden := randVec(src, n)
		for i := 0; i < 60; i++ {
			coeffs := randVec(src, n)
			if _, ok := s.Add(Equation{Coeffs: coeffs, RHS: coeffs.Dot(hidden)}); !ok {
				return false
			}
		}
		return s.Rank() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCheckDoesNotMutate(t *testing.T) {
	src := prng.New(42)
	n := 16
	s := NewSolver(n)
	for i := 0; i < 8; i++ {
		coeffs := randVec(src, n)
		s.Add(Equation{Coeffs: coeffs, RHS: src.Bit()})
	}
	before := s.clone()
	for i := 0; i < 20; i++ {
		eqs := []Equation{
			{Coeffs: randVec(src, n), RHS: src.Bit()},
			{Coeffs: randVec(src, n), RHS: src.Bit()},
		}
		s.Check(eqs)
	}
	if s.Rank() != before.Rank() {
		t.Fatal("Check changed rank")
	}
	for p := 0; p < n; p++ {
		if s.occ[p] != before.occ[p] {
			t.Fatal("Check changed basis occupancy")
		}
		if s.occ[p] && (!s.row(p).Equal(before.row(p)) || s.rhs[p] != before.rhs[p]) {
			t.Fatal("Check changed basis contents")
		}
	}
}

func TestCheckAgreesWithCloneAdd(t *testing.T) {
	// Check(eqs) must report exactly what sequentially Adding to a clone does.
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 12
		s := NewSolver(n)
		for i := 0; i < 6; i++ {
			s.Add(Equation{Coeffs: randVec(src, n), RHS: src.Bit()})
		}
		eqs := make([]Equation, 4)
		for i := range eqs {
			eqs[i] = Equation{Coeffs: randVec(src, n), RHS: src.Bit()}
		}
		inc, ok := s.Check(eqs)

		clone := s.clone()
		allOK := true
		added := 0
		for _, e := range eqs {
			a, k := clone.Add(e)
			if !k {
				allOK = false
				break
			}
			if a {
				added++
			}
		}
		if ok != allOK {
			return false
		}
		return !ok || inc == added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddSystemAtomic(t *testing.T) {
	s := NewSolver(3)
	s.Add(eq("100", 0)) // a0 = 0
	// System where second equation contradicts (a0=1): must not commit a1.
	bad := []Equation{eq("010", 1), eq("100", 1)}
	if _, ok := s.AddSystem(bad); ok {
		t.Fatal("contradictory system accepted")
	}
	if s.Rank() != 1 {
		t.Fatalf("AddSystem not atomic: rank=%d", s.Rank())
	}
	good := []Equation{eq("010", 1), eq("001", 1)}
	inc, ok := s.AddSystem(good)
	if !ok || inc != 2 {
		t.Fatalf("good system rejected: inc=%d ok=%v", inc, ok)
	}
	sol := s.Solution(func(int) uint8 { return 1 })
	if sol.Bit(0) != 0 || sol.Bit(1) != 1 || sol.Bit(2) != 1 {
		t.Errorf("solution %v wrong", sol)
	}
}

// basisEchelonError reports the first basis row that breaks the echelon
// form Add keeps: each row's pivot must be its lowest set bit, and no row
// may hold the pivot of a row inserted before it. reduceInto relies on
// exactly this.
func basisEchelonError(s *Solver) error {
	for i, p := range s.order {
		row := s.row(p)
		if low := row.FirstSet(); low != p {
			return fmt.Errorf("row %d: lowest set bit %d", p, low)
		}
		for _, q := range s.order[:i] {
			if row.Bit(q) != 0 {
				return fmt.Errorf("row %d holds the pivot bit of earlier row %d", p, q)
			}
		}
	}
	return nil
}

// basisRREFError reports the first basis row that breaks reduced
// row-echelon form: each row's pivot must be its lowest set bit, and no
// row may hold another row's pivot bit. AffineInto, Solution and
// ProjectedTable's single-pass folds rely on exactly this, so each of
// them brings the basis there first.
func basisRREFError(s *Solver) error {
	for p := 0; p < s.n; p++ {
		if !s.occ[p] {
			continue
		}
		row := s.row(p)
		if low := row.FirstSet(); low != p {
			return fmt.Errorf("row %d: lowest set bit %d", p, low)
		}
		for q := 0; q < s.n; q++ {
			if q != p && s.occ[q] && row.Bit(q) != 0 {
				return fmt.Errorf("row %d holds pivot bit %d", p, q)
			}
		}
	}
	return nil
}

// TestSolverBasisRREF checks the echelon invariant after every Add, and
// full reduced row-echelon form after an AffineInto or a Solution issued
// at random points, so each read back-substitutes a partly reduced basis,
// on seeded random systems at register widths covering one, two and three
// words.
func TestSolverBasisRREF(t *testing.T) {
	for _, n := range []int{24, 64, 85, 130} {
		for seed := uint64(0); seed < 4; seed++ {
			src := prng.New(seed*31 + uint64(n))
			s := NewSolver(n)
			var a Affine
			reads := 0
			for i := 0; i < 2*n; i++ {
				// Sparse rows arrive in every pivot order; dense ones
				// leave their pivots in most earlier rows.
				coeffs := NewVec(n)
				for k := 1 + src.Intn(n); k > 0; k-- {
					coeffs.SetBit(src.Intn(n), 1)
				}
				s.Add(Equation{Coeffs: coeffs, RHS: src.Bit()})
				if err := basisEchelonError(s); err != nil {
					t.Fatalf("n=%d seed %d after add %d (rank %d): %v", n, seed, i, s.Rank(), err)
				}
				switch src.Intn(8) {
				case 0:
					s.AffineInto(&a)
				case 1:
					s.Solution(func(int) uint8 { return src.Bit() })
				default:
					continue
				}
				reads++
				if err := basisRREFError(s); err != nil {
					t.Fatalf("n=%d seed %d read after add %d (rank %d): %v", n, seed, i, s.Rank(), err)
				}
			}
			if reads == 0 {
				t.Fatalf("n=%d seed %d: no read between the adds", n, seed)
			}
		}
	}
}

func TestSolverReset(t *testing.T) {
	s := NewSolver(4)
	s.Add(eq("1000", 1))
	s.Reset()
	if s.Rank() != 0 || s.FreeVars() != 4 {
		t.Error("Reset incomplete")
	}
	if _, ok := s.Add(eq("1000", 0)); !ok {
		t.Error("reset solver rejects fresh equation")
	}
}

func TestSolverFullRankUniqueSolution(t *testing.T) {
	// With n independent equations the solution is unique regardless of fill.
	src := prng.New(77)
	n := 10
	var s *Solver
	var hidden Vec
	for {
		s = NewSolver(n)
		hidden = randVec(src, n)
		for i := 0; i < 40 && s.Rank() < n; i++ {
			coeffs := randVec(src, n)
			s.Add(Equation{Coeffs: coeffs, RHS: coeffs.Dot(hidden)})
		}
		if s.Rank() == n {
			break
		}
	}
	zero := s.Solution(func(int) uint8 { return 0 })
	one := s.Solution(func(int) uint8 { return 1 })
	if !zero.Equal(one) || !zero.Equal(hidden) {
		t.Error("full-rank system did not recover the hidden assignment")
	}
}

// affineError checks AffineInto's contract on s's current basis, filling
// a: one generator per free variable, each annihilated by every basis row
// and holding exactly its own free column among the free ones; X0
// satisfies the basis; and X0 ⊕ Σ t_i·Gens[i] equals Solution under the
// fill t drawn from src.
func affineError(s *Solver, a *Affine, src *prng.Source) error {
	s.AffineInto(a)
	if len(a.Free) != s.FreeVars() || len(a.Gens) != len(a.Free) {
		return fmt.Errorf("%d free columns and %d generators at %d free variables", len(a.Free), len(a.Gens), s.FreeVars())
	}
	for i, g := range a.Gens {
		for _, p := range s.Pivots() {
			if s.row(p).Dot(g) != 0 {
				return fmt.Errorf("generator of column %d not annihilated by basis row %d", a.Free[i], p)
			}
		}
		for j, f := range a.Free {
			if want := uint8(0); i == j && g.Bit(f) != 1 || i != j && g.Bit(f) != want {
				return fmt.Errorf("generator of column %d has bit %d at free column %d", a.Free[i], g.Bit(f), f)
			}
		}
	}
	if !s.Satisfies(a.X0) {
		return fmt.Errorf("zero-fill solution violates the basis")
	}
	t := make([]uint8, s.N())
	for i := range t {
		t[i] = src.Bit()
	}
	want := a.X0.Clone()
	for i, f := range a.Free {
		if t[f] != 0 {
			want.Xor(a.Gens[i])
		}
	}
	if sol := s.Solution(func(f int) uint8 { return t[f] }); !sol.Equal(want) {
		return fmt.Errorf("X0 ⊕ Σ t·Gens = %v, Solution = %v", want, sol)
	}
	return nil
}

// TestAffineMatchesSolution checks AffineInto after every equation of
// random systems grown to full rank, on the one-word (n = 24, 64),
// two-word (n = 85) and generic (n = 130) layouts, reusing one Affine
// across every basis and a Reset; after warm-up a call allocates nothing.
func TestAffineMatchesSolution(t *testing.T) {
	for _, n := range []int{24, 64, 85, 130} {
		src := prng.New(uint64(n) * 7)
		s := NewSolver(n)
		var a Affine
		for round := 0; round < 2; round++ {
			s.Reset()
			if err := affineError(s, &a, src); err != nil {
				t.Fatalf("n=%d empty basis: %v", n, err)
			}
			for s.Rank() < n {
				coeffs := randVec(src, n)
				if added, _ := s.Add(Equation{Coeffs: coeffs, RHS: src.Bit()}); !added {
					continue
				}
				if err := affineError(s, &a, src); err != nil {
					t.Fatalf("n=%d rank %d: %v", n, s.Rank(), err)
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { s.AffineInto(&a) }); allocs != 0 {
			t.Errorf("n=%d: AffineInto allocates %.1f times per call", n, allocs)
		}
	}
}

func TestSolverPivots(t *testing.T) {
	s := NewSolver(5)
	s.Add(eq("00100", 1))
	s.Add(eq("00110", 0))
	ps := s.Pivots()
	if len(ps) != 2 || ps[0] != 2 || ps[1] != 3 {
		t.Errorf("Pivots = %v", ps)
	}
}

// BenchmarkSolverCheck compares the naive per-check re-elimination against
// the encoder's classical-reseeding check at the paper's register sizes
// (n=24 is s13207, n=85 is s38417, the largest). The "projected" variant
// checks rows of a fixed table in the basis's free coordinates, one word
// per equation.
func BenchmarkSolverCheck(b *testing.B) {
	for _, n := range []int{24, 85} {
		src := prng.New(1)
		s := NewSolver(n)
		for i := 0; i < n/2; i++ {
			s.Add(Equation{Coeffs: randVec(src, n), RHS: src.Bit()})
		}
		const spec = 20
		eqs := make([]Equation, spec)
		arena := make([]uint64, 0, spec*wordsFor(n))
		idx := make([]int32, spec)
		rhs := make([]uint8, spec)
		for i := range eqs {
			eqs[i] = Equation{Coeffs: randVec(src, n), RHS: src.Bit()}
			arena = append(arena, eqs[i].Coeffs.Words()...)
			idx[i] = int32(i)
			rhs[i] = eqs[i].RHS
		}
		b.Run(fmt.Sprintf("n=%d/naive", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Check(eqs)
			}
		})
		b.Run(fmt.Sprintf("n=%d/projected", n), func(b *testing.B) {
			b.ReportAllocs()
			pt := NewProjectedTable(s, NewRowSet(n, arena))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt.CheckSystem(idx, 0, rhs)
			}
		})
	}
}

// BenchmarkSolverProbe times a rank-0 probe as the encoder's fresh-window
// screen and each seed's first cube run it: Reset, then Solver.Add of a
// dense cube's equations (3n/4 of them) until one contradicts. Half the
// probes contradict at their last equation, as a failed probe does at
// worst. n=24 is s13207's register and n=85 s38417's.
func BenchmarkSolverProbe(b *testing.B) {
	for _, n := range []int{24, 85} {
		src := prng.New(2)
		spec := 3 * n / 4
		const probes = 16
		systems := make([][]Equation, probes)
		for p := range systems {
			hidden := randVec(src, n)
			sys := make([]Equation, spec)
			for i := range sys {
				c := randVec(src, n)
				sys[i] = Equation{Coeffs: c, RHS: c.Dot(hidden)}
			}
			if p%2 == 1 {
				c := sys[0].Coeffs.Clone()
				c.Xor(sys[1].Coeffs)
				sys[spec-1] = Equation{Coeffs: c, RHS: 1 ^ sys[0].RHS ^ sys[1].RHS}
			}
			systems[p] = sys
		}
		s := NewSolver(n)
		probe := func(sys []Equation) bool {
			s.Reset()
			for _, e := range sys {
				if _, ok := s.Add(e); !ok {
					return false
				}
			}
			return true
		}
		for p, sys := range systems {
			if probe(sys) != (p%2 == 0) {
				b.Fatalf("n=%d: probe %d solvable = %v", n, p, p%2 == 0)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				probe(systems[i%probes])
			}
		})
	}
}
