package encoder

import (
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// buildExprTable symbolically simulates the LFSR through L·r cycles in
// fresh tables and materialises the phase-shifter output expressions.
func buildExprTable(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, L int) (*ExprTable, error) {
	t, err := NewTables(l, ps, geo, L)
	if err != nil {
		return nil, err
	}
	return t.ExprTable(), nil
}

// TestDependenciesPositionInvariant pins the structural fact the whole
// encoder-robustness story rests on: the coefficient
// matrix of a cube's system at window position v is the position-0 matrix
// right-multiplied by the invertible (T^{v·r})ᵀ, so linear dependencies
// among a fixed set of slots are identical at every window position.
func TestDependenciesPositionInvariant(t *testing.T) {
	cfg := smallConfig(t, 16, 60, 4, 8)
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(31)
	for trial := 0; trial < 30; trial++ {
		// Pick a random slot subset and a random combination over it.
		nSlots := 3 + src.Intn(5)
		slots := make([]int, 0, nSlots)
		seen := map[int]bool{}
		for len(slots) < nSlots {
			p := src.Intn(cfg.Geo.Width)
			if !seen[p] {
				seen[p] = true
				slots = append(slots, p)
			}
		}
		// The combination XOR of expressions at position 0.
		comb := func(v int) gf2.Vec {
			acc := gf2.NewVec(16)
			for _, pos := range slots {
				acc.Xor(table.Expr(v, pos))
			}
			return acc
		}
		zeroAt0 := comb(0).IsZero()
		for v := 1; v < cfg.WindowLen; v++ {
			if comb(v).IsZero() != zeroAt0 {
				t.Fatalf("trial %d: dependency over slots %v differs between position 0 and %d", trial, slots, v)
			}
		}
	}
}

func TestBuildExprTableValidation(t *testing.T) {
	cfg := smallConfig(t, 16, 50, 4, 4)
	if _, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, 0); err == nil {
		t.Error("L=0 accepted")
	}
	// Phase shifter with the wrong output count.
	geo2 := cfg.Geo
	geo2.Chains = 5
	if _, err := buildExprTable(cfg.LFSR, cfg.PS, geo2, 4); err == nil {
		t.Error("chain-count mismatch accepted")
	}
}

// TestExprTableMemoryBounded checks that the arena holds exactly one
// expression per output slot and window position: L·Length·Chains rows.
func TestExprTableMemoryBounded(t *testing.T) {
	cfg := smallConfig(t, 24, 100, 8, 10)
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := table.Rows().Count(), cfg.WindowLen*cfg.Geo.Length*cfg.Geo.Chains; got != want {
		t.Errorf("Rows().Count() = %d, want %d", got, want)
	}
}

// TestEquationsMatchCubeBits checks the system index the encoder checks
// and commits from: at window position v, cube c's equation k is table
// row base[k]+v, the expression of c's k-th specified cell, with that
// cell's value on the right-hand side.
func TestEquationsMatchCubeBits(t *testing.T) {
	cfg := smallConfig(t, 16, 40, 4, 6)
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	padded := cube.MustParse("1xx0xxxxxx1xxxxxxxxx0xxxxxxxxx1xxxxxxxx1")
	if padded.Width() != 40 {
		t.Fatalf("test cube width %d", padded.Width())
	}
	set := cube.NewSet(40)
	set.Add(padded) //nolint:errcheck // widths match
	sys := newSystemIndex(set, cfg.Geo, cfg.WindowLen)
	base, rhs := sys.base[0], sys.rhs[0]
	if len(base) != padded.SpecifiedCount() || len(rhs) != len(base) {
		t.Fatalf("%d rows and %d right-hand sides for %d specified bits", len(base), len(rhs), padded.SpecifiedCount())
	}
	// RHS values must be the cube's specified values in position order.
	for v := 0; v < cfg.WindowLen; v++ {
		for k, pos := range padded.Specified() {
			if rhs[k] != uint8(padded.Get(pos)) {
				t.Errorf("equation %d RHS %d != cube bit %d", k, rhs[k], padded.Get(pos))
			}
			if !table.Rows().Row(int(base[k]) + v).Equal(table.Expr(v, pos)) {
				t.Errorf("position %d equation %d: coefficients not the table expression", v, k)
			}
		}
	}
}

func TestGenerateWindowIntoReuse(t *testing.T) {
	cfg := smallConfig(t, 16, 50, 4, 5)
	src := prng.New(12)
	seed := gf2.NewVec(16)
	for i := 0; i < 16; i++ {
		seed.SetBit(i, src.Bit())
	}
	fresh := GenerateWindow(cfg.LFSR, cfg.PS, cfg.Geo, seed, 5)
	reused := make([]gf2.Vec, 5)
	GenerateWindowInto(reused, cfg.LFSR, cfg.PS, cfg.Geo, seed, 5)
	// Fill the buffers with garbage and regenerate: must equal fresh.
	for _, v := range reused {
		for i := 0; i < v.Len(); i++ {
			v.SetBit(i, 1)
		}
	}
	GenerateWindowInto(reused, cfg.LFSR, cfg.PS, cfg.Geo, seed, 5)
	for i := range fresh {
		if !fresh[i].Equal(reused[i]) {
			t.Fatalf("vector %d differs after buffer reuse", i)
		}
	}
}

// generateWindowBitwise is the bit-at-a-time window generator the shared
// shift-clock kernel replaced: per clock, every chain's bit is the XOR of
// its tap cells, and the register advances by the transition matrix. It is
// the reference the word-parallel kernel is checked against.
func generateWindowBitwise(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, seed gf2.Vec, L int) []gf2.Vec {
	tm := l.Transition()
	state := seed.Clone()
	out := make([]gf2.Vec, L)
	for v := range out {
		out[v] = gf2.NewVec(geo.Width)
		for cyc := 0; cyc < geo.Length; cyc++ {
			for ch := 0; ch < geo.Chains; ch++ {
				pos := geo.CellAtCycle(ch, cyc)
				if pos < 0 {
					continue
				}
				var b uint8
				for _, cell := range ps.Taps(ch) {
					b ^= state.Bit(cell)
				}
				out[v].SetBit(pos, b)
			}
			state = tm.MulVec(state)
		}
	}
	return out
}

// TestGenerateWindowMatchesBitwise runs the word-parallel window kernel
// against the bitwise reference on every CI and paper profile's
// decompressor (registers of one and two words, cube widths of up to 26
// words, padded and unpadded chains) from random seeds.
func TestGenerateWindowMatchesBitwise(t *testing.T) {
	const L = 3
	src := prng.New(77)
	for _, scale := range []benchprofile.Scale{benchprofile.ScaleCI, benchprofile.ScalePaper} {
		for _, p := range benchprofile.All(scale) {
			cfg := smallConfig(t, p.LFSRSize, p.Width, p.Chains, L)
			for trial := 0; trial < 4; trial++ {
				seed := gf2.NewVec(p.LFSRSize)
				for i := 0; i < p.LFSRSize; i++ {
					seed.SetBit(i, src.Bit())
				}
				want := generateWindowBitwise(cfg.LFSR, cfg.PS, cfg.Geo, seed, L)
				got := GenerateWindow(cfg.LFSR, cfg.PS, cfg.Geo, seed, L)
				for v := range want {
					if !got[v].Equal(want[v]) {
						t.Fatalf("%s n=%d trial %d: vector %d differs from the bitwise reference", p.Name, p.LFSRSize, trial, v)
					}
				}
			}
		}
	}
}
