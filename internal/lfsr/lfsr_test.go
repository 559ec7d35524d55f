package lfsr

import (
	"testing"
	"testing/quick"

	"repro/internal/gf2"
	"repro/internal/prng"
)

func mustNew(t *testing.T, form Form, size int, taps []int) *LFSR {
	t.Helper()
	l, err := NewFromTaps(form, size, taps)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fig2LFSR is the 4-bit Galois register of the paper's Fig. 2:
// c0'=c3, c1'=c0^c3, c2'=c1, c3'=c2^c3, i.e. p(x)=x^4+x^3+x+1.
func fig2LFSR(t *testing.T) *LFSR {
	t.Helper()
	return mustNew(t, Galois, 4, []int{3, 1})
}

func TestFig2Transition(t *testing.T) {
	l := fig2LFSR(t)
	tm := l.Transition()
	want := [][]int{
		{3},    // c0' = c3
		{0, 3}, // c1' = c0 ^ c3
		{1},    // c2' = c1
		{2, 3}, // c3' = c2 ^ c3
	}
	for i, deps := range want {
		row := tm.Row(i)
		if row.PopCount() != len(deps) {
			t.Fatalf("row %d = %v, want taps %v", i, row, deps)
		}
		for _, d := range deps {
			if row.Bit(d) != 1 {
				t.Fatalf("row %d missing dependence on c%d", i, d)
			}
		}
	}
}

// TestFig2SymbolicTable reproduces the symbolic state table printed in the
// paper's Fig. 2 for cycles t0..t3.
func TestFig2SymbolicTable(t *testing.T) {
	l := fig2LFSR(t)
	s := NewSymbolic(l)
	// want[cycle][cell] = variable indices XORed together.
	want := [][][]int{
		{{0}, {1}, {2}, {3}},             // t0
		{{3}, {0, 3}, {1}, {2, 3}},       // t1
		{{2, 3}, {2}, {0, 3}, {1, 2, 3}}, // t2
		{{1, 2, 3}, {1}, {2}, {0, 1, 2}}, // t3
	}
	for cyc := range want {
		for cell, vars := range want[cyc] {
			expr := s.Expr(cell)
			if expr.PopCount() != len(vars) {
				t.Fatalf("t%d cell %d: expr %v, want vars %v", cyc, cell, expr, vars)
			}
			for _, v := range vars {
				if expr.Bit(v) != 1 {
					t.Fatalf("t%d cell %d: expr %v missing a%d", cyc, cell, expr, v)
				}
			}
		}
		s.Step()
	}
}

// TestFig2StateSkipRelations checks the k=2 relations derived in Section 3.1:
// c0(t+2)=c2^c3, c1(t+2)=c2, c2(t+2)=c0^c3, c3(t+2)=c1^c2^c3 — for every
// state, not just the initial one.
func TestFig2StateSkipRelations(t *testing.T) {
	l := fig2LFSR(t)
	skip := l.SkipMatrix(2)
	want := [][]int{{2, 3}, {2}, {0, 3}, {1, 2, 3}}
	for i, deps := range want {
		row := skip.Row(i)
		if row.PopCount() != len(deps) {
			t.Fatalf("skip row %d = %v, want %v", i, row, deps)
		}
		for _, d := range deps {
			if row.Bit(d) != 1 {
				t.Fatalf("skip row %d missing c%d", i, d)
			}
		}
	}
	// And dynamically: from any state, two Normal steps equal one skip step.
	state := gf2.NewVec(4)
	state.SetBit(0, 1)
	state.SetBit(2, 1)
	state.SetBit(3, 1) // 1011 as in the figure
	for i := 0; i < 20; i++ {
		twoSteps := l.Step(l.Step(state))
		skipped := skip.MulVec(state)
		if !twoSteps.Equal(skipped) {
			t.Fatalf("cycle %d: skip disagrees with two normal steps", i)
		}
		state = l.Step(state)
	}
}

// stepIntoBitwise is the bit-at-a-time register clock StepInto replaced,
// kept as the reference its word-parallel shifts are checked against.
func stepIntoBitwise(l *LFSR, dst, state gf2.Vec) {
	switch l.form {
	case Fibonacci:
		var fb uint8
		for j := 0; j < l.n; j++ {
			if l.coeffs.Bit(j) != 0 {
				fb ^= state.Bit(j)
			}
		}
		for i := 0; i < l.n-1; i++ {
			dst.SetBit(i, state.Bit(i+1))
		}
		dst.SetBit(l.n-1, fb)
	case Galois:
		f := state.Bit(l.n - 1)
		dst.SetBit(0, f)
		for i := 1; i < l.n; i++ {
			b := state.Bit(i - 1)
			if l.coeffs.Bit(i) != 0 {
				b ^= f
			}
			dst.SetBit(i, b)
		}
	}
}

// TestStepIntoMatchesMatrix checks the word-parallel clock against the
// transition matrix and the bitwise reference, on the paper's n=16 example
// and on curated sizes either side of every word boundary up to two words.
func TestStepIntoMatchesMatrix(t *testing.T) {
	for _, form := range []Form{Fibonacci, Galois} {
		for _, n := range []int{16, 24, 44, 63, 64, 65, 85, 100, 128} {
			l, err := NewStandard(form, n)
			if err != nil {
				t.Fatal(err)
			}
			src := prng.New(uint64(form)*1000 + uint64(n) + 9)
			state := gf2.NewVec(n)
			for i := 0; i < n; i++ {
				state.SetBit(i, src.Bit())
			}
			state.SetBit(0, 1) // ensure nonzero
			tm := l.Transition()
			dst, ref := gf2.NewVec(n), gf2.NewVec(n)
			for i := 0; i < 3*n; i++ {
				l.StepInto(dst, state)
				stepIntoBitwise(l, ref, state)
				if !dst.Equal(tm.MulVec(state)) || !dst.Equal(ref) {
					t.Fatalf("%v n=%d: StepInto disagrees with the transition matrix or the bitwise clock at step %d", form, n, i)
				}
				state.CopyFrom(dst)
			}
		}
	}
}

// period runs the register from state 0...01 until it revisits the
// initial state and returns the cycle length; only for n small enough to
// enumerate.
func period(l *LFSR) uint64 {
	init := gf2.NewVec(l.n)
	init.SetBit(0, 1)
	cur := init.Clone()
	next := gf2.NewVec(l.n)
	var count uint64
	for {
		l.StepInto(next, cur)
		cur, next = next, cur
		count++
		if cur.Equal(init) {
			return count
		}
	}
}

func TestMaximalPeriodSmallSizes(t *testing.T) {
	// Exhaustively confirm the curated polynomials are primitive for small n:
	// the state sequence from any nonzero state must have period 2^n - 1.
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		taps, ok := Taps(n)
		if !ok {
			t.Fatalf("no taps for size %d", n)
		}
		for _, form := range []Form{Fibonacci, Galois} {
			l, err := NewFromTaps(form, n, taps)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(1)<<uint(n) - 1
			if got := period(l); got != want {
				t.Errorf("size %d %v: period %d, want %d", n, form, got, want)
			}
		}
	}
}

func TestCuratedTapsIrreducible(t *testing.T) {
	// Rabin's irreducibility test over every table entry, including the
	// paper's sizes 24, 39, 44, 56 and 85 that are too big for exhaustive
	// period checks.
	for _, n := range Sizes() {
		taps, _ := Taps(n)
		exps := append([]int{n, 0}, taps...)
		p := gf2.NewPoly(exps...)
		if !gf2.Irreducible(p) {
			t.Errorf("curated polynomial for size %d (%v) is reducible", n, p)
		}
	}
}

func TestPaperSizesPresent(t *testing.T) {
	for _, n := range []int{24, 39, 44, 56, 85} {
		if _, ok := Taps(n); !ok {
			t.Errorf("missing curated polynomial for paper LFSR size %d", n)
		}
	}
}

func TestSkipMatrixComposition(t *testing.T) {
	// T^(j+k) = T^j · T^k and SkipExpressions agrees with SkipMatrix.
	l := mustNew(t, Fibonacci, 24, []int{23, 22, 17})
	f := func(j, k uint8) bool {
		ej, ek := uint64(j%40), uint64(k%40)
		prod := l.SkipMatrix(ej).Mul(l.SkipMatrix(ek))
		return prod.Equal(l.SkipMatrix(ej + ek))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	for _, k := range []int{1, 2, 7, 24} {
		if !SkipExpressions(l, k).Equal(l.SkipMatrix(uint64(k))) {
			t.Errorf("SkipExpressions(%d) disagrees with SkipMatrix", k)
		}
	}
}

func TestSkipModeShortensSequence(t *testing.T) {
	// Running s cycles in skip mode with factor k visits exactly the states
	// at indices 0, k, 2k, ... of the Normal-mode sequence.
	l := mustNew(t, Galois, 8, []int{6, 5, 4})
	k := 5
	skip := l.SkipMatrix(uint64(k))
	state := gf2.NewVec(8)
	state.SetBit(3, 1)
	// Normal-mode trajectory.
	normal := []gf2.Vec{state.Clone()}
	cur := state.Clone()
	for i := 0; i < 60; i++ {
		cur = l.Step(cur)
		normal = append(normal, cur.Clone())
	}
	// Skip-mode trajectory.
	cur = state.Clone()
	for i := 0; i*k < len(normal); i++ {
		if !cur.Equal(normal[i*k]) {
			t.Fatalf("skip step %d: got %v, want %v", i, cur, normal[i*k])
		}
		cur = skip.MulVec(cur)
	}
}

func TestTransitionInvertible(t *testing.T) {
	for _, form := range []Form{Fibonacci, Galois} {
		for _, n := range []int{8, 24, 44, 85} {
			taps, _ := Taps(n)
			l := mustNew(t, form, n, taps)
			if _, ok := l.Transition().Inverse(); !ok {
				t.Errorf("%v size %d: singular transition matrix", form, n)
			}
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(Fibonacci, gf2.NewVec(1)); err == nil {
		t.Error("size 1 accepted")
	}
	v := gf2.NewVec(8) // constant coefficient 0
	if _, err := New(Fibonacci, v); err == nil {
		t.Error("singular polynomial accepted")
	}
	if _, err := NewFromTaps(Galois, 8, []int{9}); err == nil {
		t.Error("out-of-range tap accepted")
	}
	if _, err := NewStandard(Fibonacci, 1000); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestCharPolyMatchesTaps(t *testing.T) {
	l := mustNew(t, Fibonacci, 24, []int{23, 22, 17})
	want := gf2.NewPoly(24, 23, 22, 17, 0)
	if !l.CharPoly().Equal(want) {
		t.Errorf("CharPoly = %v, want %v", l.CharPoly(), want)
	}
}

func TestSymbolicMatrixIsTransitionPower(t *testing.T) {
	l := mustNew(t, Fibonacci, 12, []int{6, 4, 1})
	s := NewSymbolic(l)
	for cyc := 0; cyc <= 30; cyc++ {
		if !s.ExprMatrix().Equal(l.Transition().Pow(uint64(cyc))) {
			t.Fatalf("symbolic state at cycle %d is not T^%d", cyc, cyc)
		}
		s.Step()
	}
}

func BenchmarkSymbolicStep(b *testing.B) {
	l, _ := NewStandard(Fibonacci, 85)
	s := NewSymbolic(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStep(b *testing.B) {
	l, _ := NewStandard(Fibonacci, 85)
	state := gf2.NewVec(85)
	state.SetBit(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = l.Step(state)
	}
}

func BenchmarkSkipMatrix(b *testing.B) {
	l, _ := NewStandard(Fibonacci, 85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SkipMatrix(24)
	}
}
