package scan

import "testing"

func TestNewGeometry(t *testing.T) {
	g, err := New(700, 32)
	if err != nil {
		t.Fatal(err)
	}
	if g.Length != 22 { // ceil(700/32)
		t.Errorf("length = %d, want 22", g.Length)
	}
	if g.PaddedWidth() != 704 {
		t.Errorf("padded = %d", g.PaddedWidth())
	}
	if _, err := New(0, 32); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(10, 0); err == nil {
		t.Error("zero chains accepted")
	}
}

func TestCellPosRoundTrip(t *testing.T) {
	g, _ := New(100, 8) // r = 13
	for pos := 0; pos < g.PaddedWidth(); pos++ {
		ch, d := g.Cell(pos)
		if ch < 0 || ch >= 8 || d < 0 || d >= 13 {
			t.Fatalf("pos %d: cell (%d,%d) out of range", pos, ch, d)
		}
		if g.Pos(ch, d) != pos {
			t.Fatalf("pos %d: round trip gave %d", pos, g.Pos(ch, d))
		}
	}
}

func TestShiftCycleInverse(t *testing.T) {
	g, _ := New(64, 4) // r = 16
	for d := 0; d < g.Length; d++ {
		if g.DepthAt(g.ShiftCycle(d)) != d {
			t.Errorf("depth %d: ShiftCycle/DepthAt not inverse", d)
		}
	}
	// Deepest cell's bit enters first.
	if g.ShiftCycle(g.Length-1) != 0 {
		t.Error("deepest bit should enter at cycle 0")
	}
	if g.ShiftCycle(0) != g.Length-1 {
		t.Error("shallowest bit should enter last")
	}
}

func TestCellAtCyclePadding(t *testing.T) {
	g, _ := New(10, 4) // r = 3, padded 12: positions 10, 11 are padding
	seen := make(map[int]bool)
	pads := 0
	for cyc := 0; cyc < g.Length; cyc++ {
		for ch := 0; ch < g.Chains; ch++ {
			pos := g.CellAtCycle(ch, cyc)
			if pos < 0 {
				pads++
				continue
			}
			if pos >= g.Width {
				t.Fatalf("cycle %d chain %d: position %d beyond width", cyc, ch, pos)
			}
			if seen[pos] {
				t.Fatalf("position %d scheduled twice", pos)
			}
			seen[pos] = true
		}
	}
	if len(seen) != g.Width {
		t.Errorf("schedule covers %d of %d positions", len(seen), g.Width)
	}
	if pads != g.PaddedWidth()-g.Width {
		t.Errorf("%d padding slots, want %d", pads, g.PaddedWidth()-g.Width)
	}
}

func TestPanicsOnBadIndices(t *testing.T) {
	g, _ := New(16, 4)
	for _, f := range []func(){
		func() { g.Cell(-1) },
		func() { g.Cell(g.PaddedWidth()) },
		func() { g.Pos(4, 0) },
		func() { g.Pos(0, g.Length) },
		func() { g.ShiftCycle(g.Length) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
