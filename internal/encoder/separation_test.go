package encoder

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// separatedTapsRef is the reference NewSeparatedTables' tap search is
// checked against: the same draws from the same PRNG, with each round's
// collision found by findCollisionMap, a symbolic sweep of its own that
// compares every pair of cycles.
func separatedTapsRef(l *lfsr.LFSR, outputs, windowCycles int, variant uint64) ([][]int, error) {
	n := l.Size()
	if outputs < 1 || windowCycles < 1 {
		return nil, fmt.Errorf("bad arguments: %d outputs, %d cycles", outputs, windowCycles)
	}
	src := prng.New(uint64(n)<<32 ^ uint64(outputs)<<16 ^ uint64(windowCycles) ^ 0x51ab ^ variant*0x9e3779b97f4a7c15)
	taps := make([][]int, outputs)
	for o := range taps {
		taps[o] = randomTaps(src, n)
	}
	for round := 0; round < 64; round++ {
		colliding := findCollisionMap(l, taps, windowCycles)
		if colliding < 0 {
			return taps, nil
		}
		taps[colliding] = randomTaps(src, n)
	}
	return nil, fmt.Errorf("could not separate %d outputs over %d cycles", outputs, windowCycles)
}

// findCollisionMap clones every output expression of every cycle into
// buckets keyed by an FNV-1a hash, and returns the first output, in
// (cycle, output) order, whose expression equals an earlier one of another
// output at any cycle, or -1 if there is none.
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

// TestSeparatedTablesMatchReference runs NewSeparatedTables against the
// reference search over 360 configurations: both register forms, ten
// register sizes from 8 to 85, six scan geometries and window lengths
// (16 to 2,250 clocks, so n = 8 and n = 10 see windows longer than their
// periods of 255 and 1,023), and variants 0 to 2. The taps and the error
// cases must match, and the arena of a search that succeeds must equal
// the one NewTables fills from the reference taps, word for word.
func TestSeparatedTablesMatchReference(t *testing.T) {
	geos := []struct{ width, chains, L int }{
		{6, 6, 20}, {24, 4, 10}, {40, 8, 40}, {17, 3, 50}, {64, 16, 1}, {30, 2, 150},
	}
	var configs, failed int
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		for _, n := range []int{8, 10, 12, 16, 20, 24, 32, 48, 64, 85} {
			l, err := lfsr.NewStandard(form, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range geos {
				geo, err := scan.New(g.width, g.chains)
				if err != nil {
					t.Fatal(err)
				}
				for variant := uint64(0); variant < 3; variant++ {
					configs++
					label := fmt.Sprintf("%v n=%d chains=%d r=%d L=%d variant %d", form, n, geo.Chains, geo.Length, g.L, variant)
					want, wantErr := separatedTapsRef(l, geo.Chains, g.L*geo.Length, variant)
					got, err := NewSeparatedTables(l, geo, g.L, variant)
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("%s: err = %v, reference %v", label, err, wantErr)
					}
					if err != nil {
						if !strings.Contains(err.Error(), "could not separate") {
							t.Fatalf("%s: err = %v, want a separation failure", label, err)
						}
						failed++
						continue
					}
					for o := range want {
						if fmt.Sprint(got.PS().Taps(o)) != fmt.Sprint(want[o]) {
							t.Fatalf("%s: output %d taps %v, reference %v", label, o, got.PS().Taps(o), want[o])
						}
					}
					ps, err := phaseshifter.New(n, want)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := NewTables(l, ps, geo, g.L)
					if err != nil {
						t.Fatal(err)
					}
					rows, refRows := got.ExprTable().Rows(), ref.ExprTable().Rows()
					if rows.Count() != refRows.Count() {
						t.Fatalf("%s: %d rows, reference %d", label, rows.Count(), refRows.Count())
					}
					for i := 0; i < rows.Count(); i++ {
						if !rows.Row(i).Equal(refRows.Row(i)) {
							t.Fatalf("%s: arena row %d differs from the reference taps' table", label, i)
						}
					}
				}
			}
		}
	}
	if configs < 360 || failed == 0 || failed == configs {
		t.Errorf("%d configurations, %d failed to separate; want at least 360 and both outcomes", configs, failed)
	}
}

// TestFindCollisionMatchesMap runs the separation check of one sweep
// against findCollisionMap, which compares every pair of cycles, over
// random tap sets on both register forms, reusing one arena across trials
// the way NewSeparatedTables reuses it across rounds. The small registers
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
			// One cell per chain: window position p is clock p.
			geo, err := scan.New(c.outputs, c.outputs)
			if err != nil {
				t.Fatal(err)
			}
			arena := newArena(l, geo, c.window)
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
				if got := sweep(arena, l, taps, geo, c.window, newSeparation(c.n, taps)); got != want {
					t.Fatalf("%v n=%d trial %d: sweep = %d, reference %d", form, c.n, trial, got, want)
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

// TestSeparationNoDuplicateExpressions is the core guarantee: within the
// verified window, no two outputs ever produce the same linear expression
// of the seed, so no test cube can be structurally unencodable due to a
// two-slot conflict. The expressions come from a symbolic simulation of
// the test's own, which must also equal the table's rows.
func TestSeparationNoDuplicateExpressions(t *testing.T) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, 20)
	if err != nil {
		t.Fatal(err)
	}
	const outputs, window = 6, 200
	geo, err := scan.New(outputs, outputs) // one clock per window vector
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := NewSeparatedTables(l, geo, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := tabs.ExprTable()
	sym := lfsr.NewSymbolic(l)
	seen := make(map[string][2]int)
	scratch := gf2.NewVec(20)
	for cyc := 0; cyc < window; cyc++ {
		for o := 0; o < outputs; o++ {
			scratch.Zero()
			for _, c := range tabs.PS().Taps(o) {
				scratch.Xor(sym.Expr(c))
			}
			if !table.Expr(cyc, o).Equal(scratch) {
				t.Fatalf("output %d at cycle %d: table row differs from the symbolic simulation", o, cyc)
			}
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
	l, err := lfsr.NewStandard(lfsr.Fibonacci, 24)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := scan.New(24, 8) // 8 chains of 3 cells: 100 vectors are 300 clocks
	if err != nil {
		t.Fatal(err)
	}
	taps := func(variant uint64) string {
		t.Helper()
		tabs, err := NewSeparatedTables(l, geo, 100, variant)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for o := 0; o < geo.Chains; o++ {
			fmt.Fprint(&b, tabs.PS().Taps(o))
		}
		return b.String()
	}
	a := taps(0)
	if b := taps(0); a != b {
		t.Fatalf("not deterministic: %s, then %s", a, b)
	}
	if v1 := taps(1); v1 == a {
		t.Error("variant 1 identical to variant 0")
	}
}

func TestSeparatedImpossibleFails(t *testing.T) {
	// 2^8-1 = 255 states cannot hold 8 channels × 64 cycles = 512 distinct
	// phases.
	l, err := lfsr.NewStandard(lfsr.Fibonacci, 8)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := scan.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeparatedTables(l, geo, 64, 0); err == nil {
		t.Error("impossible separation accepted")
	}
}

func TestSeparatedRejectsBadArgs(t *testing.T) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeparatedTables(l, scan.Geometry{}, 10, 0); err == nil {
		t.Error("0 outputs accepted")
	}
	geo, err := scan.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeparatedTables(l, geo, 0, 0); err == nil {
		t.Error("0 window accepted")
	}
}
