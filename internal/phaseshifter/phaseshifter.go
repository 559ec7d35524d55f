// Package phaseshifter implements the XOR network between an LFSR and the
// scan chains. Adjacent LFSR cells produce shifted copies of the same bit
// sequence; feeding chains directly from cells would make neighbouring
// chains linearly dependent and cripple the seed-equation systems. A phase
// shifter drives every chain with the XOR of a small set of cells, chosen so
// the output sequences are widely separated phases of the m-sequence.
//
// The construction here (NewSeparated) taps three cells per output and
// verifies by symbolic simulation that no two outputs produce the same
// seed expression anywhere within the encoding window — the separation
// property window-based reseeding needs.
package phaseshifter

import (
	"fmt"
	"math/bits"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/prng"
	"repro/internal/scan"
)

// PhaseShifter is an immutable XOR network from n LFSR cells to m outputs.
type PhaseShifter struct {
	n     int
	words int     // words per n-bit tap mask
	taps  [][]int // taps[out] = LFSR cell indices XORed into that output
	// masks holds one n-bit tap mask per output, output o at words
	// [o·words, (o+1)·words): a concrete output bit is the parity of the
	// state under its mask.
	masks []uint64
}

// New builds a phase shifter with explicit taps. Every output must have at
// least one tap and all taps must be valid cell indices.
func New(n int, taps [][]int) (*PhaseShifter, error) {
	if n < 1 {
		return nil, fmt.Errorf("phaseshifter: LFSR size %d invalid", n)
	}
	if len(taps) == 0 {
		return nil, fmt.Errorf("phaseshifter: need at least one output")
	}
	words := (n + 63) / 64
	cp := make([][]int, len(taps))
	masks := make([]uint64, len(taps)*words)
	for o, ts := range taps {
		if len(ts) == 0 {
			return nil, fmt.Errorf("phaseshifter: output %d has no taps", o)
		}
		seen := make(map[int]bool, len(ts))
		for _, c := range ts {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("phaseshifter: output %d taps cell %d outside [0,%d)", o, c, n)
			}
			if seen[c] {
				return nil, fmt.Errorf("phaseshifter: output %d taps cell %d twice", o, c)
			}
			seen[c] = true
			masks[o*words+c/64] |= 1 << (uint(c) % 64)
		}
		cp[o] = append([]int(nil), ts...)
	}
	return &PhaseShifter{n: n, words: words, taps: cp, masks: masks}, nil
}

// NewSeparated builds a 3-tap-per-output phase shifter whose output
// sequences are verified to have no phase overlap within windowCycles
// clocks.
//
// Each output, being an XOR of LFSR cells, produces the register's
// m-sequence at some phase (the shift-and-add property). If two outputs'
// phases come closer than the window length, they emit the *same* linear
// expression of the seed at two different (output, cycle) slots, and any
// test cube specifying opposite values at those slots becomes structurally
// unencodable. Naive tap constructions (e.g. constant-stride tap sets) are
// catastrophic here: shifting a tap set by s cells shifts its phase by
// exactly s, putting all channels within a few cycles of each other.
//
// Because computing phases outright needs discrete logarithms in GF(2^n),
// NewSeparated instead verifies separation directly: it simulates the
// register symbolically for windowCycles clocks, looks every output
// expression up among the outputs' expressions at the first clock, and
// re-randomises the taps of any output that collides with an earlier one.
// Tap choice is deterministic (seeded from n, outputs and windowCycles),
// so identical configurations always yield identical hardware.
func NewSeparated(l *lfsr.LFSR, outputs, windowCycles int) (*PhaseShifter, error) {
	return NewSeparatedVariant(l, outputs, windowCycles, 0)
}

// NewSeparatedVariant is NewSeparated with a design-variant salt. Pairwise
// phase separation cannot rule out *higher-weight* translation-invariant
// relations (e.g. output a XOR output b at equal cycles equalling output c a
// few cycles earlier); when a test set happens to specify slots on such a
// relation with odd parity, that cube is structurally unencodable under
// this particular shifter and the flow retries with the next variant —
// mirroring real DFT practice, where the phase shifter is iterated until
// the test set encodes. See encoder.EncodeAutoCtx.
func NewSeparatedVariant(l *lfsr.LFSR, outputs, windowCycles int, variant uint64) (*PhaseShifter, error) {
	n := l.Size()
	if outputs < 1 {
		return nil, fmt.Errorf("phaseshifter: need at least one output, got %d", outputs)
	}
	if windowCycles < 1 {
		return nil, fmt.Errorf("phaseshifter: window of %d cycles invalid", windowCycles)
	}
	src := prng.New(uint64(n)<<32 ^ uint64(outputs)<<16 ^ uint64(windowCycles) ^ 0x51ab ^ variant*0x9e3779b97f4a7c15)
	taps := make([][]int, outputs)
	for o := range taps {
		taps[o] = randomTaps(src, n)
	}
	cs := newCollisionSet(n, outputs)
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		colliding := findCollision(l, taps, windowCycles, cs)
		if colliding < 0 {
			return New(n, taps)
		}
		taps[colliding] = randomTaps(src, n)
	}
	return nil, fmt.Errorf("phaseshifter: could not separate %d outputs over %d cycles for n=%d (state space too small)", outputs, windowCycles, n)
}

// randomTaps draws three distinct cells (fewer if n < 3).
func randomTaps(src *prng.Source, n int) []int {
	want := 3
	if n < want {
		want = n
	}
	set := make(map[int]bool, want)
	out := make([]int, 0, want)
	for len(out) < want {
		c := src.Intn(n)
		if !set[c] {
			set[c] = true
			out = append(out, c)
		}
	}
	return out
}

// findCollision symbolically simulates windowCycles clocks and returns the
// index of the first output, in (cycle, output) order, whose expression
// duplicates another output's expression at that or an earlier cycle, or
// -1 if all expressions are distinct.
//
// The LFSR transition is invertible, so output a's expression at cycle i
// equals output b's at cycle j ≤ i exactly when a's expression at cycle
// i − j equals b's at cycle 0. The first duplicate therefore always
// involves a cycle-0 expression: cycle 0 checks the outputs against each
// other, and every later cycle only looks each expression up among the m
// cycle-0 ones. cs is reset and reused; it must be sized for len(taps)
// expressions.
func findCollision(l *lfsr.LFSR, taps [][]int, windowCycles int, cs *collisionSet) int {
	cs.reset()
	sym := lfsr.NewSymbolic(l)
	scratch := gf2.NewVec(l.Size())
	for cyc := 0; cyc < windowCycles; cyc++ {
		for o, ts := range taps {
			scratch.Zero()
			for _, c := range ts {
				scratch.Xor(sym.Expr(c))
			}
			if cs.match(o, scratch.Words(), cyc == 0) {
				return o
			}
		}
		sym.Step()
	}
	return -1
}

// collisionSet holds the outputs' cycle-0 expressions of one separation
// round: the expressions in one flat word arena, indexed by an
// open-addressing hash table of entry numbers, so a round allocates
// nothing once the set is sized.
type collisionSet struct {
	words int
	arena []uint64 // entry e's expression at words [e·words, (e+1)·words)
	outs  []int32  // entry e's output
	slots []int32  // entry numbers by hash, linear probing; -1 = empty
	shift uint     // 64 − log2(len(slots)): the hash's top bits index slots
}

func newCollisionSet(n, entries int) *collisionSet {
	logSlots := uint(bits.Len(uint(2*entries - 1))) // load factor ≤ 1/2
	words := (n + 63) / 64
	return &collisionSet{
		words: words,
		arena: make([]uint64, 0, entries*words),
		outs:  make([]int32, 0, entries),
		slots: make([]int32, 1<<logSlots),
		shift: 64 - logSlots,
	}
}

func (cs *collisionSet) reset() {
	cs.arena = cs.arena[:0]
	cs.outs = cs.outs[:0]
	for i := range cs.slots {
		cs.slots[i] = -1
	}
}

// match reports whether an entry of another output holds expr; otherwise,
// if add is set, it records expr as an entry of output o.
func (cs *collisionSet) match(o int, expr []uint64, add bool) bool {
	h := uint64(0)
	for _, w := range expr {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	mask := len(cs.slots) - 1
	for i := int(h >> cs.shift); ; i = (i + 1) & mask {
		e := int(cs.slots[i])
		if e < 0 {
			if add {
				cs.slots[i] = int32(len(cs.outs))
				cs.outs = append(cs.outs, int32(o))
				cs.arena = append(cs.arena, expr...)
			}
			return false
		}
		if int(cs.outs[e]) != o && equalWords(cs.arena[e*cs.words:(e+1)*cs.words], expr) {
			return true
		}
	}
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Outputs returns the number of outputs m.
func (p *PhaseShifter) Outputs() int { return len(p.taps) }

// Size returns the LFSR size n the shifter was built for.
func (p *PhaseShifter) Size() int { return p.n }

// Taps returns the tap list of one output (read-only).
func (p *PhaseShifter) Taps(out int) []int { return p.taps[out] }

// ShiftInto writes the bits the phase shifter feeds the scan chains at
// shift clock cyc (0 ≤ cyc < geo.Length) of a vector load, for the given
// concrete LFSR state, into dst (geo.Width bits): chain ch's bit lands on
// cell geo.CellAtCycle(ch, cyc), and padding slots are dropped. The
// geometry's chain count must equal the output count. This is the one
// concrete shift-clock kernel behind window generation, the State Skip
// applied-vector stream and the decompressor simulator.
func (p *PhaseShifter) ShiftInto(dst gf2.Vec, geo scan.Geometry, cyc int, state gf2.Vec) {
	p.checkState(state)
	sw, dw := state.Words(), dst.Words()
	// Chain-major cells: chain ch's cell at this cycle is ch·r + depth, so
	// the cells rise with ch and the first padding slot ends the loop.
	pos := geo.DepthAt(cyc)
	for ch := 0; ch < geo.Chains && pos < geo.Width; ch++ {
		w, sh := pos/64, uint(pos)%64
		dw[w] = dw[w]&^(1<<sh) | uint64(p.output(ch, sw))<<sh
		pos += geo.Length
	}
}

// output is the concrete bit of output o: the parity of the state words
// under the output's tap mask.
func (p *PhaseShifter) output(o int, state []uint64) uint8 {
	var acc uint64
	for i, m := range p.masks[o*p.words : (o+1)*p.words] {
		acc ^= m & state[i]
	}
	return uint8(bits.OnesCount64(acc) & 1)
}

func (p *PhaseShifter) checkState(state gf2.Vec) {
	if state.Len() != p.n {
		panic(fmt.Sprintf("phaseshifter: state width %d != %d", state.Len(), p.n))
	}
}

// XORGateCount returns the number of 2-input XOR gates a direct
// implementation needs: taps-1 per output.
func (p *PhaseShifter) XORGateCount() int {
	total := 0
	for _, ts := range p.taps {
		total += len(ts) - 1
	}
	return total
}
