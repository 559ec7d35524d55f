package lfsr

import (
	"fmt"

	"repro/internal/gf2"
)

// Symbolic simulates an LFSR whose initial state is a vector of free binary
// variables (a_0, ..., a_{n-1}) rather than concrete bits. After t clocks,
// each cell holds a linear expression over those variables; Expr(i) returns
// the expression of cell i as an n-bit coefficient vector.
//
// This is the construction of Section 3.1 of the paper: initialising the
// register with symbolic state and clocking it k times yields the linear
// expressions F_0^k ... F_{n-1}^k that the State Skip circuit implements,
// and clocking it through a whole window yields the equation system that
// seed computation solves (Koenemann's LFSR-coded test patterns).
type Symbolic struct {
	l     *LFSR
	exprs []gf2.Vec // exprs[i] = expression of cell i over initial variables
}

// NewSymbolic returns a symbolic simulation at cycle 0, where cell i holds
// exactly variable a_i. All n expressions live in one contiguous word arena
// (Step only rotates the views and XORs in place), so long window
// simulations walk cache lines instead of n scattered allocations.
func NewSymbolic(l *LFSR) *Symbolic {
	s := &Symbolic{l: l, exprs: make([]gf2.Vec, l.n)}
	words := (l.n + 63) / 64
	arena := make([]uint64, l.n*words)
	for i := range s.exprs {
		s.exprs[i] = gf2.VecView(l.n, arena[i*words:(i+1)*words])
		s.exprs[i].SetBit(i, 1)
	}
	return s
}

// Expr returns the expression of cell i. The returned vector is live
// simulation state: callers must clone it if they need it to survive the
// next Step.
func (s *Symbolic) Expr(i int) gf2.Vec { return s.exprs[i] }

// ExprMatrix returns a snapshot matrix whose row i is the expression of
// cell i, i.e. T^cycle.
func (s *Symbolic) ExprMatrix() gf2.Mat {
	return gf2.MatFromRows(s.exprs)
}

// Step advances the symbolic state one clock, allocation-free.
func (s *Symbolic) Step() {
	n := s.l.n
	switch s.l.form {
	case Fibonacci:
		// fb = XOR of tap cells; cell 0 always participates (c_0 = 1), so
		// accumulate into its storage and rotate it to the top.
		fb := s.exprs[0]
		for j := 1; j < n; j++ {
			if s.l.coeffs.Bit(j) != 0 {
				fb.Xor(s.exprs[j])
			}
		}
		copy(s.exprs, s.exprs[1:])
		s.exprs[n-1] = fb
	case Galois:
		// f = cell n-1 becomes cell 0; every cell i ≥ 1 takes cell i-1,
		// XORed with f where the polynomial has a term.
		f := s.exprs[n-1]
		copy(s.exprs[1:], s.exprs[:n-1])
		s.exprs[0] = f
		for i := 1; i < n; i++ {
			if s.l.coeffs.Bit(i) != 0 {
				s.exprs[i].Xor(f)
			}
		}
	default:
		panic(fmt.Sprintf("lfsr: unknown form %v", s.l.form))
	}
}

// StepN advances the symbolic state by k clocks.
func (s *Symbolic) StepN(k int) {
	for i := 0; i < k; i++ {
		s.Step()
	}
}

// SkipExpressions returns the linear expressions F_0^k ... F_{n-1}^k of
// Section 3.1: row i is the expression of cell i after k clocks in terms of
// the state k clocks earlier. It equals l.SkipMatrix(k) and is computed by
// fresh symbolic simulation, which is how the paper describes deriving the
// State Skip circuit.
func SkipExpressions(l *LFSR, k int) gf2.Mat {
	s := NewSymbolic(l)
	s.StepN(k)
	return s.ExprMatrix()
}
