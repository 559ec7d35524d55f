package atpg

// Native fuzz targets cross-checking the event-driven implication engine
// against the full-resimulation reference. FuzzGenerate fuzzes circuit
// shape, fault site and backtrack budget and compares whole PODEM runs;
// FuzzImply fuzzes a raw assign/undo decision sequence and compares the
// complete 3-valued state and D-frontier after every step. A small seed
// corpus is checked into testdata/fuzz/; CI runs a short -fuzz smoke on
// FuzzImply.

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// fuzzSetup decodes a fuzzed circuit shape and fault selector into a
// netlist, shared tables and one fault of its collapsed universe.
// shape[0..4] select inputs, outputs, gates, max fan-in and the backtrack
// budget; an odd shape[5] retypes Buf and Xnor gates in (retypeBufXnor,
// with bit 1 as alt); missing bytes default to zero.
func fuzzSetup(t *testing.T, seed, faultSel uint64, shape []byte) (*Tables, *faultsim.Universe, faultsim.Fault, int) {
	t.Helper()
	sb := func(i int) int {
		if i < len(shape) {
			return int(shape[i])
		}
		return 0
	}
	cfg := netlist.RandomConfig{
		Inputs:  3 + sb(0)%14,
		Outputs: 1 + sb(1)%8,
		Gates:   8 + sb(2)%72,
		MaxFan:  2 + sb(3)%3,
		Seed:    seed,
	}
	nl, err := netlist.Random(cfg)
	if err != nil {
		t.Skip("unbuildable fuzz config:", err)
	}
	if sb(5)&1 != 0 {
		retypeBufXnor(nl, sb(5)>>1&1)
	}
	tables, err := NewTables(nl)
	if err != nil {
		t.Skip("unlevelizable fuzz circuit:", err)
	}
	u := faultsim.NewUniverse(nl)
	if len(u.Faults) == 0 {
		t.Skip("empty fault universe")
	}
	f := u.Faults[int(faultSel%uint64(len(u.Faults)))]
	limit := 1 + sb(4)%60
	return tables, u, f, limit
}

// FuzzGenerate compares full PODEM runs of the event-driven and reference
// engines on fuzzed (circuit shape, fault site, backtrack budget) triples:
// status and cube must match bit for bit, and any detected cube must
// actually detect its fault on the independent fault simulator for both
// X-fill polarities. The multiple-backtrace strategy runs on the same
// triple under the validity contract instead: verified cubes, and no
// untestability verdict that contradicts the reference engine.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), uint64(0), []byte{12, 4, 48, 1, 40})
	f.Add(uint64(2008), uint64(17), []byte{6, 2, 20, 0, 10})
	f.Add(uint64(7), uint64(999), []byte{13, 7, 71, 2, 5})
	f.Fuzz(func(t *testing.T, seed, faultSel uint64, shape []byte) {
		tables, u, fault, limit := fuzzSetup(t, seed, faultSel, shape)
		g := tables.NewGenerator()
		g.BacktrackLimit = limit
		ref := newRefGenerator(tables)
		ref.BacktrackLimit = limit
		gc, gs := g.Generate(fault)
		rc, rs := ref.Generate(fault)
		if gs != rs {
			t.Fatalf("fault %v: event status %v, reference %v", fault, gs, rs)
		}
		if gs == StatusDetected && gc.String() != rc.String() {
			t.Fatalf("fault %v: event cube %s, reference %s", fault, gc, rc)
		}
		sim, err := faultsim.NewSimulatorLanes(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Independent oracle: a PODEM cube detects its fault regardless of
		// how the don't-cares are filled (verifyCube, backtrace_test.go).
		if gs == StatusDetected {
			verifyCube(t, "event", sim, fault, gc)
		}
		multi := tables.NewGenerator()
		multi.Strategy = BacktraceMulti
		multi.BacktrackLimit = limit
		mc, ms := multi.Generate(fault)
		if ms == StatusDetected {
			verifyCube(t, "multi", sim, fault, mc)
		}
		if ms == StatusUntestable && gs == StatusDetected {
			t.Fatalf("fault %v: multi proves untestable, reference detects", fault)
		}
		if gs == StatusUntestable && ms == StatusDetected {
			t.Fatalf("fault %v: reference proves untestable, multi detects", fault)
		}
	})
}

// FuzzImply drives the event-driven engine through a fuzzed sequence of PI
// assignments and trail undos — decision orders PODEM itself would never
// pick — and asserts the full good/bad state and the incremental
// D-frontier equal a fresh full re-simulation after every single step.
func FuzzImply(f *testing.F) {
	f.Add(uint64(1), uint64(0), []byte{12, 4, 48, 1}, []byte{0x02, 0x05, 0x81, 0x04, 0x80})
	f.Add(uint64(42), uint64(33), []byte{8, 3, 60, 2}, []byte{0x01, 0x03, 0x07, 0x80, 0x80, 0x06})
	f.Add(uint64(2008), uint64(5), []byte{14, 5, 30, 0}, []byte{0x10, 0x91, 0x12, 0x13})
	f.Add(uint64(9), uint64(3), []byte{10, 4, 56, 1, 0, 1}, []byte{0x02, 0x05, 0x81, 0x0a, 0x80, 0x0c, 0x07})
	f.Add(uint64(77), uint64(120), []byte{12, 6, 70, 2, 0, 3}, []byte{0x01, 0x06, 0x0b, 0x80, 0x10, 0x15, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, seed, faultSel uint64, shape, ops []byte) {
		tables, _, fault, _ := fuzzSetup(t, seed, faultSel, shape)
		nl := tables.Netlist()
		g := tables.NewGenerator()
		checker := newRefGenerator(tables)
		checker.computeCone(fault)
		step := -1
		check := func() {
			checker.resimulateFrom(g.good, fault)
			for gi := range g.good {
				if g.good[gi] != checker.good[gi] || g.bad[gi] != checker.bad[gi] {
					t.Fatalf("step %d gate %d: event good=%d bad=%d, reference good=%d bad=%d",
						step, gi, g.good[gi], g.bad[gi], checker.good[gi], checker.bad[gi])
				}
			}
			got, want := g.dFrontier(), checker.dFrontier(fault)
			if len(got) != len(want) {
				t.Fatalf("step %d: D-frontier %v, reference %v", step, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: D-frontier %v, reference %v", step, got, want)
				}
			}
		}
		g.begin(fault)
		check()
		var marks []int
		for si, op := range ops {
			step = si
			if op&0x80 != 0 {
				if len(marks) == 0 {
					continue
				}
				g.undoTo(marks[len(marks)-1])
				marks = marks[:len(marks)-1]
				check()
				continue
			}
			pi := int(op>>1) % len(nl.Inputs)
			if g.good[nl.Inputs[pi]] != vX {
				continue // PODEM only ever assigns unassigned inputs
			}
			marks = append(marks, len(g.trail))
			g.assign(pi, op&1)
			check()
		}
	})
}
