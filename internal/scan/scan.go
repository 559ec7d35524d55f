// Package scan models the scan-chain geometry of a core under test: m scan
// chains of length r, fed in parallel by the m outputs of a phase shifter,
// one bit per chain per clock.
//
// A test cube addresses scan cells by a flat index in [0, Width); this
// package fixes the mapping between that flat index and the (chain, shift
// cycle) pair at which the decompressor produces the bit. The paper assumes
// 32 balanced chains for every circuit; widths that do not divide evenly are
// padded — pad positions exist in the hardware schedule but never appear in
// cubes, so they are always don't-care.
package scan

import "fmt"

// Geometry describes a scan configuration.
type Geometry struct {
	Chains int // m, number of scan chains
	Length int // r, cells per chain (after padding)
	Width  int // usable cube width (≤ Chains*Length)
}

// New returns the geometry for a core with the given cube width and chain
// count: chain length r = ceil(width/chains).
func New(width, chains int) (Geometry, error) {
	if width <= 0 || chains <= 0 {
		return Geometry{}, fmt.Errorf("scan: width %d and chains %d must be positive", width, chains)
	}
	r := (width + chains - 1) / chains
	return Geometry{Chains: chains, Length: r, Width: width}, nil
}

// PaddedWidth returns Chains*Length, the number of scheduled bit slots per
// test vector.
func (g Geometry) PaddedWidth() int { return g.Chains * g.Length }

// Cell maps a flat cube position to its (chain, position-in-chain) pair.
// Cells are distributed chain-major: position p lives in chain p / Length at
// depth p % Length.
func (g Geometry) Cell(pos int) (chain, depth int) {
	if pos < 0 || pos >= g.PaddedWidth() {
		panic(fmt.Sprintf("scan: position %d out of range [0,%d)", pos, g.PaddedWidth()))
	}
	return pos / g.Length, pos % g.Length
}

// Pos is the inverse of Cell.
func (g Geometry) Pos(chain, depth int) int {
	if chain < 0 || chain >= g.Chains || depth < 0 || depth >= g.Length {
		panic(fmt.Sprintf("scan: cell (%d,%d) out of range %dx%d", chain, depth, g.Chains, g.Length))
	}
	return chain*g.Length + depth
}

// ShiftCycle returns the clock (within one vector's r-cycle load) at which
// the bit for the given depth enters its chain. Bits shift in deepest-first:
// the bit destined for depth d enters at cycle r-1-d, so after r clocks it
// has shifted to depth d.
func (g Geometry) ShiftCycle(depth int) int {
	if depth < 0 || depth >= g.Length {
		panic(fmt.Sprintf("scan: depth %d out of range [0,%d)", depth, g.Length))
	}
	return g.Length - 1 - depth
}

// DepthAt is the inverse of ShiftCycle.
func (g Geometry) DepthAt(cycle int) int { return g.Length - 1 - cycle }

// CellAtCycle returns the flat position whose bit chain ch receives at the
// given shift clock, or -1 if that slot is padding (beyond Width).
func (g Geometry) CellAtCycle(ch, cycle int) int {
	p := g.Pos(ch, g.DepthAt(cycle))
	if p >= g.Width {
		return -1
	}
	return p
}
