// Package phaseshifter implements the XOR network between an LFSR and the
// scan chains. Adjacent LFSR cells produce shifted copies of the same bit
// sequence; feeding chains directly from cells would make neighbouring
// chains linearly dependent and cripple the seed-equation systems. A phase
// shifter drives every chain with the XOR of a small set of cells, chosen so
// the output sequences are widely separated phases of the m-sequence.
//
// The package holds only the XOR network. Choosing separated taps — three
// cells per output, verified by symbolic simulation never to produce the
// same seed expression at two outputs anywhere within the encoding window,
// the separation property window-based reseeding needs — reads the same
// symbolic rows the encoder's expression table holds, so it is done while
// that table is filled (encoder.NewSeparatedTables).
package phaseshifter

import (
	"fmt"
	"math/bits"

	"repro/internal/gf2"
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
