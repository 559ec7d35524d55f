package phaseshifter

import (
	"testing"

	"repro/internal/gf2"
	"repro/internal/prng"
)

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
