package atpg

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// c17ish is the classic ISCAS-85 c17 benchmark (6 NAND gates).
const c17 = `
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func readC17(t testing.TB) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ReadBench(strings.NewReader(c17))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestC17EveryFaultTestable(t *testing.T) {
	n := readC17(t)
	u := faultsim.NewUniverse(n)
	g, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := faultsim.NewSimulatorLanes(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range u.Faults {
		c, status := g.Generate(f)
		if status != StatusDetected {
			t.Errorf("fault %v reported %v (c17 has no redundant faults)", f, status)
			continue
		}
		// Fill X with 0 and with 1; the cube must detect the fault either way.
		for fill := uint8(0); fill <= 1; fill++ {
			pat := make([]uint8, c.Width())
			for i := range pat {
				if v := c.Get(i); v >= 0 {
					pat[i] = uint8(v)
				} else {
					pat[i] = fill
				}
			}
			if err := sim.LoadPatterns([][]uint8{pat}); err != nil {
				t.Fatal(err)
			}
			if sim.DetectLanes(f)[0] == 0 {
				t.Errorf("fault %v: cube %v (X=%d) does not detect it", f, c, fill)
			}
		}
	}
}

func TestRunAllC17FullCoverage(t *testing.T) {
	n := readC17(t)
	u := faultsim.NewUniverse(n)
	res, err := RunAllCtx(context.Background(), u, Options{FaultDrop: true, FillSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Untestable != 0 {
		t.Errorf("%d untestable faults in c17", res.Untestable)
	}
	if res.Coverage < 0.999 {
		t.Errorf("coverage %.3f, want 1.0", res.Coverage)
	}
	if res.Cubes.Len() == 0 {
		t.Fatal("no cubes generated")
	}
	// Cubes must have don't-cares: that is the property the paper exploits.
	st := res.Cubes.Summary()
	if st.MaxSpecified >= st.Width {
		t.Error("no don't-cares in any cube (suspicious for PODEM)")
	}
}

func TestRandomCircuitsHighCoverage(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 24, Outputs: 8, Gates: 120, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		u := faultsim.NewUniverse(nl)
		res, err := RunAllCtx(context.Background(), u, Options{FaultDrop: true, FillSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage < 0.98 {
			t.Errorf("seed %d: coverage %.3f below 0.98", seed, res.Coverage)
		}
		// Verify end to end with the independent fault simulator: the exact
		// filled patterns RunAll used must reproduce the reported coverage.
		if len(res.Patterns) != res.Cubes.Len() {
			t.Fatalf("seed %d: %d patterns for %d cubes", seed, len(res.Patterns), res.Cubes.Len())
		}
		det, cov, err := faultsim.CoverageCtx(context.Background(), u, res.Patterns, faultsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_ = det
		wantCov := res.Coverage * float64(len(u.Faults)-res.Untestable) / float64(len(u.Faults))
		if cov+1e-9 < wantCov {
			t.Errorf("seed %d: independent fault sim coverage %.3f below ATPG-reported %.3f", seed, cov, wantCov)
		}
	}
}

func TestUntestableFaultReported(t *testing.T) {
	// A signal that never reaches an output is untestable.
	n := netlist.New()
	n.AddInput("a")
	n.AddInput("b")
	n.AddGate("dead", netlist.And, "a", "b")
	n.AddGate("live", netlist.Or, "a", "b")
	n.MarkOutput("live")
	g, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	deadIdx, _ := n.Index("dead")
	if _, status := g.Generate(faultsim.Fault{Gate: deadIdx, Pin: -1, Stuck: 0}); status != StatusUntestable {
		t.Errorf("fault on dead logic reported %v, want untestable", status)
	}
}

// BenchmarkImply isolates one implication: assigning a primary input and
// propagating its consequences (plus the matching undo for the event
// engine, so every iteration starts from the same state). The event-driven
// engine touches only the input's changed cone; the reference re-simulates
// all gates, which is what every PODEM decision, flip and backtrack used
// to cost. "event" injects a primary-input stem fault, the deepest cone in
// the circuit; "event-output-fault" a stem fault on a primary-output gate
// without fan-out, whose cone is that gate alone, so nearly every
// evaluation falls outside it — the common case of a paper-scale run.
func BenchmarkImply(b *testing.B) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 200, Outputs: 64, Gates: 2000, MaxFan: 3, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	tables, err := NewTables(nl)
	if err != nil {
		b.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	f := u.Faults[0] // a primary-input stem: the deepest cone in the circuit
	outFault := -1
	for fi, of := range u.Faults {
		if of.Pin == -1 && tables.isOutput[of.Gate] && len(tables.adj.Fanouts(of.Gate)) == 0 {
			outFault = fi
			break
		}
	}
	if outFault < 0 {
		b.Fatal("no primary-output gate without fan-out")
	}
	implyLoop := func(b *testing.B, f faultsim.Fault) {
		g := tables.NewGenerator()
		g.begin(f)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pi := i % len(nl.Inputs)
			mark := len(g.trail)
			g.assign(pi, uint8(i>>3&1))
			g.undoTo(mark)
		}
	}
	b.Run("event", func(b *testing.B) { implyLoop(b, f) })
	b.Run("event-output-fault", func(b *testing.B) { implyLoop(b, u.Faults[outFault]) })
	b.Run("reference-resim", func(b *testing.B) {
		r := newRefGenerator(tables)
		for i := range r.good {
			r.good[i] = vX
			r.bad[i] = vX
		}
		r.computeCone(f)
		r.simulate(f)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gi := nl.Inputs[i%len(nl.Inputs)]
			r.good[gi] = uint8(i >> 3 & 1)
			r.simulate(f)
			r.good[gi] = vX
		}
	})
}

func BenchmarkPODEMRandom(b *testing.B) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 32, Outputs: 8, Gates: 200, MaxFan: 3, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	g, err := New(nl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(u.Faults[i%len(u.Faults)])
	}
}
