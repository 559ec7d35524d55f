// Package lfsr models Linear Feedback Shift Registers and the State Skip
// extension introduced by Tenentes, Kavousianos and Kalligeros (DATE 2008).
//
// An LFSR of size n is a linear autonomous machine: its next state is T·s
// for an invertible n×n transition matrix T over GF(2). The State Skip
// circuit is a second linear next-state function implementing T^k, so that
// one clock in State Skip mode advances the register k states, skipping the
// k-1 intermediate states. Because T^k depends only on the characteristic
// polynomial and k — never on the current state — the same two-mode register
// works at every point of the state sequence.
package lfsr

import (
	"fmt"
	"sync"

	"repro/internal/gf2"
)

// Form selects the feedback structure of the register.
type Form int

const (
	// Fibonacci is the external-XOR form: cells shift down one position and
	// the top cell receives the XOR of the tap cells.
	Fibonacci Form = iota
	// Galois is the internal-XOR form: the feedback bit is XORed into the
	// cells selected by the characteristic polynomial as the register
	// shifts. The worked example in Fig. 2 of the paper is a Galois LFSR.
	Galois
)

// String returns the lower-case form name, "fibonacci" or "galois".
func (f Form) String() string {
	switch f {
	case Fibonacci:
		return "fibonacci"
	case Galois:
		return "galois"
	default:
		return fmt.Sprintf("Form(%d)", int(f))
	}
}

// LFSR is a description of a linear feedback shift register: its size,
// feedback form, characteristic-polynomial coefficients and the derived
// transition matrix. State vectors live outside the struct so one LFSR can
// drive many concurrent simulations; the only internal mutability is a
// mutex-guarded memo of skip matrices, so all methods are safe for
// concurrent use.
type LFSR struct {
	n      int
	form   Form
	coeffs gf2.Vec // coeffs.Bit(i) = coefficient of x^i, i in [0,n); x^n implied
	t      gf2.Mat // transition matrix: next = t·state

	mu    sync.Mutex
	skips map[uint64]gf2.Mat // guarded by mu; memoized T^k per speedup factor k
}

// New builds an LFSR of size n with the given characteristic polynomial
// p(x) = x^n + Σ coeffs_i x^i. coeffs must have length n and constant term
// coeffs_0 = 1 (otherwise the transition is singular and the register loses
// state information).
func New(form Form, coeffs gf2.Vec) (*LFSR, error) {
	n := coeffs.Len()
	if n < 2 {
		return nil, fmt.Errorf("lfsr: size %d too small (need ≥ 2)", n)
	}
	if coeffs.Bit(0) != 1 {
		return nil, fmt.Errorf("lfsr: constant coefficient must be 1 for an invertible transition")
	}
	l := &LFSR{n: n, form: form, coeffs: coeffs.Clone(), skips: make(map[uint64]gf2.Mat)}
	l.t = l.buildTransition()
	return l, nil
}

// NewFromTaps builds an LFSR of the given size from polynomial exponents.
// The exponents may include size and 0; both are implied and deduplicated.
// Example: NewFromTaps(Fibonacci, 4, []int{4, 1, 0}) is x^4 + x + 1.
func NewFromTaps(form Form, size int, taps []int) (*LFSR, error) {
	coeffs := gf2.NewVec(size)
	coeffs.SetBit(0, 1)
	for _, e := range taps {
		if e < 0 || e > size {
			return nil, fmt.Errorf("lfsr: tap exponent %d out of range [0,%d]", e, size)
		}
		if e == size || e == 0 {
			continue
		}
		coeffs.SetBit(e, 1)
	}
	return New(form, coeffs)
}

// NewStandard builds an LFSR of the given size using the curated primitive
// polynomial table (see Taps). It fails if the table has no entry.
func NewStandard(form Form, size int) (*LFSR, error) {
	taps, ok := Taps(size)
	if !ok {
		return nil, fmt.Errorf("lfsr: no curated primitive polynomial for size %d", size)
	}
	return NewFromTaps(form, size, taps)
}

// Size returns the number of register cells n.
func (l *LFSR) Size() int { return l.n }

// FormOf returns the feedback structure.
func (l *LFSR) FormOf() Form { return l.form }

// Coeffs returns a copy of the characteristic polynomial coefficients
// (bit i = coefficient of x^i, i < n; the x^n term is implied).
func (l *LFSR) Coeffs() gf2.Vec { return l.coeffs.Clone() }

// CharPoly returns the characteristic polynomial as a gf2.Poly.
func (l *LFSR) CharPoly() gf2.Poly {
	exps := []int{l.n}
	for i := 0; i < l.n; i++ {
		if l.coeffs.Bit(i) != 0 {
			exps = append(exps, i)
		}
	}
	return gf2.NewPoly(exps...)
}

// Transition returns a copy of the transition matrix T (next = T·state).
func (l *LFSR) Transition() gf2.Mat { return l.t.Clone() }

// buildTransition derives T from the form and coefficients.
//
// Fibonacci: cell i takes cell i+1; cell n-1 takes the XOR of the cells
// selected by the coefficients (cell 0 always participates since c_0 = 1).
//
// Galois: feedback f = cell n-1; cell 0 takes f; cell i (i ≥ 1) takes cell
// i-1 XOR c_i·f. For n = 4, c = (1,1,0,1) this is exactly the register of
// the paper's Fig. 2.
func (l *LFSR) buildTransition() gf2.Mat {
	t := gf2.NewMat(l.n, l.n)
	switch l.form {
	case Fibonacci:
		for i := 0; i < l.n-1; i++ {
			t.Set(i, i+1, 1)
		}
		for j := 0; j < l.n; j++ {
			if l.coeffs.Bit(j) != 0 {
				t.Set(l.n-1, j, 1)
			}
		}
	case Galois:
		t.Set(0, l.n-1, 1)
		for i := 1; i < l.n; i++ {
			t.Set(i, i-1, 1)
			if l.coeffs.Bit(i) != 0 {
				t.Set(i, l.n-1, 1)
			}
		}
	default:
		panic(fmt.Sprintf("lfsr: unknown form %v", l.form))
	}
	return t
}

// Step returns the successor of state (one Normal-mode clock). It performs
// the O(n) shift directly rather than raising the transition matrix to a
// power, so it is safe to call once per simulated clock.
func (l *LFSR) Step(state gf2.Vec) gf2.Vec {
	dst := gf2.NewVec(l.n)
	l.StepInto(dst, state)
	return dst
}

// StepInto writes the successor of state into dst without allocating.
// dst and state must be distinct n-bit vectors. The shift is word-parallel:
// a Fibonacci clock is one parity of state∧coeffs plus a multi-word shift
// towards cell 0; a Galois clock is a multi-word shift towards cell n-1
// plus the coefficient mask XORed in when the feedback bit is set.
func (l *LFSR) StepInto(dst, state gf2.Vec) {
	if dst.Len() != l.n || state.Len() != l.n {
		panic("lfsr: StepInto length mismatch")
	}
	d, s := dst.Words(), state.Words()
	last := len(s) - 1
	top := uint(l.n-1) % 64 // bit of cell n-1 within the last word
	switch l.form {
	case Fibonacci:
		fb := uint64(state.Dot(l.coeffs))
		for i := 0; i < last; i++ {
			d[i] = s[i]>>1 | s[i+1]<<63
		}
		d[last] = s[last]>>1 | fb<<top
	case Galois:
		f := -(s[last] >> top & 1) // all ones iff the feedback bit is set
		for i := last; i > 0; i-- {
			d[i] = s[i]<<1 | s[i-1]>>63
		}
		d[0] = s[0] << 1
		d[last] &= ^uint64(0) >> (63 - top) // drop the bit shifted past cell n-1
		for i, c := range l.coeffs.Words() {
			d[i] ^= c & f
		}
	}
}

// SkipMatrix returns T^k, the linear function implemented by the State Skip
// circuit with speedup factor k. The O(n³ log k) exponentiation is memoized
// per k on the LFSR (safe for concurrent use); callers receive a private
// copy they may freely modify.
func (l *LFSR) SkipMatrix(k uint64) gf2.Mat {
	l.mu.Lock()
	m, ok := l.skips[k]
	if !ok {
		m = l.t.Pow(k)
		l.skips[k] = m
	}
	l.mu.Unlock()
	return m.Clone()
}
