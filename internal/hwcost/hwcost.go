// Package hwcost estimates the silicon cost of the decompression hardware
// in gate equivalents (GE), the unit the paper reports (1 GE = one 2-input
// NAND). The model is technology-independent: each primitive has a fixed GE
// weight taken from typical standard-cell libraries, and linear (XOR)
// networks are costed after greedy common-subexpression elimination (Paar's
// algorithm), which is how synthesis tools actually share XOR terms.
//
// Absolute numbers from such a model track real synthesis only to first
// order, so the comparison with the paper's figures is one of *trends* (GE
// versus speedup factor k, GE versus L and S), and the orders of magnitude
// line up. `go run ./cmd/stateskip -scale paper hw` prints the model's
// numbers at the paper's sizes.
package hwcost

import (
	"math"

	"repro/internal/gf2"
)

// Gate-equivalent weights of the primitives, in units of NAND2 = 1.
const (
	GEXor2 = 2.25 // 2-input XOR
	GEMux2 = 1.75 // 2-input multiplexer
	GEDFF  = 4.25 // D flip-flop
	GEAnd2 = 1.25 // 2-input AND/OR/NOR
	GEInv  = 0.75 // inverter
)

// XorNetwork is the cost summary of a linear output network.
type XorNetwork struct {
	Inputs    int
	Outputs   int
	NaiveXORs int // XOR2 count without sharing: Σ (row weight − 1)
	CSEXORs   int // XOR2 count after Paar common-subexpression elimination
}

// NaiveGE returns the GE cost without sharing.
func (x XorNetwork) NaiveGE() float64 { return float64(x.NaiveXORs) * GEXor2 }

// GE returns the GE cost with sharing.
func (x XorNetwork) GE() float64 { return float64(x.CSEXORs) * GEXor2 }

// CostLinear costs the network computing out = M·in, where row i of M
// lists which inputs feed output i.
//
// Paar's greedy CSE repeatedly finds the pair of signals that co-occurs in
// the most outputs, materialises their XOR as a new shared signal, and
// rewrites the outputs to use it. For LFSR skip matrices this typically
// saves 30–50% of the XORs, which is what lets the paper quote ~52 GE for a
// k=12 skip circuit on a 24-bit register.
func CostLinear(m gf2.Mat) XorNetwork {
	rows := m.Rows()
	cols := m.Cols()
	net := XorNetwork{Inputs: cols, Outputs: rows}
	// Working copy: each row as a set of signal indices. Signals 0..cols-1
	// are inputs; new shared signals get fresh indices.
	work := make([][]int, rows)
	for i := 0; i < rows; i++ {
		r := m.Row(i)
		for j := r.FirstSet(); j >= 0; j = r.NextSet(j + 1) {
			work[i] = append(work[i], j)
		}
		if len(work[i]) > 1 {
			net.NaiveXORs += len(work[i]) - 1
		}
	}
	nextSignal := cols
	gates := 0
	for {
		// Count co-occurrences of signal pairs across rows.
		type pair struct{ a, b int }
		counts := make(map[pair]int)
		for _, row := range work {
			for i := 0; i < len(row); i++ {
				for j := i + 1; j < len(row); j++ {
					a, b := row[i], row[j]
					if a > b {
						a, b = b, a
					}
					counts[pair{a, b}]++
				}
			}
		}
		best := pair{-1, -1}
		bestCount := 1 // sharing pays off only from 2 co-occurrences up
		for p, c := range counts {
			if c < 2 || c < bestCount {
				continue
			}
			// Prefer higher count; break count ties deterministically by
			// lowest signal indices so the cost is run-independent.
			if c > bestCount || best.a < 0 || p.a < best.a || (p.a == best.a && p.b < best.b) {
				best = p
				bestCount = c
			}
		}
		if best.a < 0 {
			break
		}
		// Materialise the shared XOR and rewrite rows.
		gates++
		sig := nextSignal
		nextSignal++
		for ri, row := range work {
			hasA, hasB := false, false
			for _, s := range row {
				if s == best.a {
					hasA = true
				}
				if s == best.b {
					hasB = true
				}
			}
			if hasA && hasB {
				nr := row[:0]
				for _, s := range row {
					if s != best.a && s != best.b {
						nr = append(nr, s)
					}
				}
				work[ri] = append(nr, sig)
			}
		}
	}
	// Remaining per-row XORs.
	for _, row := range work {
		if len(row) > 1 {
			gates += len(row) - 1
		}
	}
	net.CSEXORs = gates
	return net
}

// Counter returns the GE cost of a b-bit synchronous up-counter with reset:
// b flip-flops plus roughly one half-adder (XOR + AND) per bit.
func Counter(bits int) float64 {
	if bits <= 0 {
		return 0
	}
	return float64(bits) * (GEDFF + GEXor2 + GEAnd2)
}

// CounterFor returns the counter cost for counting up to n states.
func CounterFor(n int) float64 { return Counter(BitsFor(n)) }

// BitsFor returns ceil(log2(n)) with a minimum of 1.
func BitsFor(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Register returns the GE cost of b storage bits (no increment logic).
func Register(bits int) float64 { return float64(bits) * GEDFF }

// Mux2 returns the GE cost of w parallel 2:1 multiplexers.
func Mux2(width int) float64 { return float64(width) * GEMux2 }

// Comparator returns the GE cost of a b-bit equality comparator:
// b XNORs plus an AND tree.
func Comparator(bits int) float64 {
	if bits <= 0 {
		return 0
	}
	return float64(bits)*GEXor2 + float64(bits-1)*GEAnd2
}

// DecodeTerm returns the GE cost of decoding one specific value of a b-bit
// counter (an AND tree over b literals).
func DecodeTerm(bits int) float64 {
	if bits <= 1 {
		return GEInv
	}
	return float64(bits-1)*GEAnd2 + GEInv
}
