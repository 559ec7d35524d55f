package phaseshifter

import (
	"testing"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/prng"
)

func std(t testing.TB, n int) *lfsr.LFSR {
	t.Helper()
	l, err := lfsr.NewStandard(lfsr.Fibonacci, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, [][]int{{0}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("no outputs accepted")
	}
	if _, err := New(4, [][]int{{}}); err == nil {
		t.Error("empty tap set accepted")
	}
	if _, err := New(4, [][]int{{4}}); err == nil {
		t.Error("out-of-range tap accepted")
	}
	if _, err := New(4, [][]int{{1, 1}}); err == nil {
		t.Error("duplicate tap accepted")
	}
	ps, err := New(4, [][]int{{0, 2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Outputs() != 2 || ps.Size() != 4 {
		t.Error("dimensions wrong")
	}
	if ps.XORGateCount() != 1 {
		t.Errorf("XOR count = %d", ps.XORGateCount())
	}
}

func TestApplyMatchesTaps(t *testing.T) {
	ps, _ := New(8, [][]int{{0, 3, 5}, {1}, {2, 7}})
	src := prng.New(4)
	for trial := 0; trial < 50; trial++ {
		state := gf2.NewVec(8)
		for i := 0; i < 8; i++ {
			state.SetBit(i, src.Bit())
		}
		out := ps.apply(state)
		if out.Bit(0) != state.Bit(0)^state.Bit(3)^state.Bit(5) {
			t.Fatal("output 0 wrong")
		}
		if out.Bit(1) != state.Bit(1) {
			t.Fatal("output 1 wrong")
		}
		if out.Bit(2) != state.Bit(2)^state.Bit(7) {
			t.Fatal("output 2 wrong")
		}
		dst := gf2.NewVec(3)
		ps.applyInto(dst, state)
		if !dst.Equal(out) {
			t.Fatal("applyInto disagrees with apply")
		}
	}
}

// apply computes the m concrete output bits for a concrete LFSR state, a
// direct reference for the output parity the shift kernel computes.
func (p *PhaseShifter) apply(state gf2.Vec) gf2.Vec {
	out := gf2.NewVec(len(p.taps))
	p.applyInto(out, state)
	return out
}

// applyInto is apply without allocation; dst must have m bits.
func (p *PhaseShifter) applyInto(dst, state gf2.Vec) {
	p.checkState(state)
	sw := state.Words()
	for o := range p.taps {
		dst.SetBit(o, p.output(o, sw))
	}
}

// exprInto writes the symbolic expression of output o — the XOR of the
// cell expressions — into dst (an n-bit scratch vector).
func exprInto(p *PhaseShifter, dst gf2.Vec, sym *lfsr.Symbolic, o int) {
	dst.Zero()
	for _, c := range p.taps[o] {
		dst.Xor(sym.Expr(c))
	}
}

// TestSeparationNoDuplicateExpressions is the core guarantee: within the
// verified window, no two outputs ever produce the same linear expression
// of the seed, so no test cube can be structurally unencodable due to a
// two-slot conflict.
func TestSeparationNoDuplicateExpressions(t *testing.T) {
	l := std(t, 20)
	window := 200
	ps, err := NewSeparated(l, 6, window)
	if err != nil {
		t.Fatal(err)
	}
	sym := lfsr.NewSymbolic(l)
	seen := make(map[string][2]int)
	scratch := gf2.NewVec(20)
	for cyc := 0; cyc < window; cyc++ {
		for o := 0; o < ps.Outputs(); o++ {
			exprInto(ps, scratch, sym, o)
			key := scratch.String()
			if prev, dup := seen[key]; dup && prev[0] != o {
				t.Fatalf("outputs %d and %d collide (cycles %d and %d)", prev[0], o, prev[1], cyc)
			}
			if _, dup := seen[key]; !dup {
				seen[key] = [2]int{o, cyc}
			}
		}
		sym.Step()
	}
}

func TestSeparatedDeterministicAndVariants(t *testing.T) {
	l := std(t, 24)
	a, err := NewSeparated(l, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeparated(l, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 8; o++ {
		ta, tb := a.Taps(o), b.Taps(o)
		if len(ta) != len(tb) {
			t.Fatal("not deterministic")
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatal("not deterministic")
			}
		}
	}
	v1, err := NewSeparatedVariant(l, 8, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	different := false
	for o := 0; o < 8 && !different; o++ {
		ta, tv := a.Taps(o), v1.Taps(o)
		for i := range ta {
			if i < len(tv) && ta[i] != tv[i] {
				different = true
				break
			}
		}
	}
	if !different {
		t.Error("variant 1 identical to variant 0")
	}
}

func TestSeparatedImpossibleFails(t *testing.T) {
	// 2^8-1 = 255 states cannot hold 8 channels × 64 cycles = 512 distinct
	// phases.
	l := std(t, 8)
	if _, err := NewSeparated(l, 8, 64); err == nil {
		t.Error("impossible separation accepted")
	}
}

func TestSeparatedRejectsBadArgs(t *testing.T) {
	l := std(t, 16)
	if _, err := NewSeparated(l, 0, 10); err == nil {
		t.Error("0 outputs accepted")
	}
	if _, err := NewSeparated(l, 4, 0); err == nil {
		t.Error("0 window accepted")
	}
}

// findCollisionMap is the reference findCollision is checked against: it
// clones every output expression of every cycle into buckets keyed by an
// FNV-1a hash, and reports the first expression equal to an earlier one of
// another output, at any cycle.
func findCollisionMap(l *lfsr.LFSR, taps [][]int, windowCycles int) int {
	type slot struct {
		out  int
		expr gf2.Vec
	}
	seen := make(map[uint64][]slot, windowCycles*len(taps))
	sym := lfsr.NewSymbolic(l)
	scratch := gf2.NewVec(l.Size())
	for cyc := 0; cyc < windowCycles; cyc++ {
		for o, ts := range taps {
			scratch.Zero()
			for _, c := range ts {
				scratch.Xor(sym.Expr(c))
			}
			h := uint64(0xcbf29ce484222325)
			for _, w := range scratch.Words() {
				for i := 0; i < 8; i++ {
					h ^= (w >> (8 * i)) & 0xff
					h *= 0x100000001b3
				}
			}
			for _, s := range seen[h] {
				if s.out != o && s.expr.Equal(scratch) {
					return o
				}
			}
			seen[h] = append(seen[h], slot{out: o, expr: scratch.Clone()})
		}
		sym.Step()
	}
	return -1
}

// TestFindCollisionMatchesMap runs the cycle-0 separation check against
// the map-based reference, which compares every pair of cycles, over random
// tap sets on both register forms, reusing one collision set across trials
// the way NewSeparatedVariant reuses it across rounds. The small registers
// collide often, so both outcomes are hit. n = 8 has period 255, shorter
// than the 300-cycle windows: a lone output then repeats its own
// expression, which is no collision, and two outputs always meet.
func TestFindCollisionMatchesMap(t *testing.T) {
	src := prng.New(21)
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		for _, c := range []struct{ n, outputs, window int }{
			{8, 4, 20}, {8, 1, 300}, {8, 2, 300}, {20, 8, 300}, {24, 8, 200}, {85, 32, 60},
		} {
			l, err := lfsr.NewStandard(form, c.n)
			if err != nil {
				t.Fatal(err)
			}
			cs := newCollisionSet(c.n, c.outputs)
			collided := 0
			for trial := 0; trial < 40; trial++ {
				taps := make([][]int, c.outputs)
				for o := range taps {
					taps[o] = randomTaps(src, c.n)
				}
				if c.outputs == 4 && trial%2 == 0 {
					taps[c.outputs-1] = append([]int(nil), taps[0]...) // certain collision
				}
				want := findCollisionMap(l, taps, c.window)
				if got := findCollision(l, taps, c.window, cs); got != want {
					t.Fatalf("%v n=%d trial %d: findCollision = %d, reference %d", form, c.n, trial, got, want)
				}
				if want >= 0 {
					collided++
				}
			}
			if c.outputs == 4 && (collided == 0 || collided == 40) {
				t.Errorf("%v n=8: %d/40 trials collided; want both outcomes", form, collided)
			}
		}
	}
}
