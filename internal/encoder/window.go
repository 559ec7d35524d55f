package encoder

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// GenerateWindow expands a concrete seed into its window of L test vectors,
// exactly as the decompressor hardware would: the LFSR starts from the seed
// state and runs L·r Normal-mode clocks; at every clock each phase-shifter
// output feeds one scan chain. The returned vectors have geo.Width bits
// (padding slots are dropped).
//
// This concrete path and the symbolic ExprTable describe the same machine;
// TestTableMatchesGeneration pins them together, and the whole encoding
// story rests on that equality.
func GenerateWindow(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, seed gf2.Vec, L int) []gf2.Vec {
	out := make([]gf2.Vec, L)
	GenerateWindowInto(out, l, ps, geo, seed, L)
	return out
}

// GenerateWindowInto fills dst (length ≥ L) with the window vectors,
// reusing every slot that already holds a geo.Width-bit vector and
// allocating a fresh one for any other slot (nil or of another width).
func GenerateWindowInto(dst []gf2.Vec, l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, seed gf2.Vec, L int) {
	if seed.Len() != l.Size() {
		panic(fmt.Sprintf("encoder: seed width %d != LFSR size %d", seed.Len(), l.Size()))
	}
	state := seed.Clone()
	next := gf2.NewVec(l.Size())
	for v := 0; v < L; v++ {
		// Every cell of the vector is written once per r clocks, so a
		// reused slot needs no clearing.
		if dst[v].Len() != geo.Width {
			dst[v] = gf2.NewVec(geo.Width)
		}
		for cyc := 0; cyc < geo.Length; cyc++ {
			ps.ShiftInto(dst[v], geo, cyc, state)
			l.StepInto(next, state)
			state, next = next, state
		}
	}
}
