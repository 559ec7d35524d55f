package atpg

// Tests for the FAN/SOCRATES-style multiple backtrace (backtrace.go). The
// two strategies legitimately make different decisions, so unlike the
// event-vs-reference implication tests these do not assert bit-identity;
// they assert the properties that make a strategy *valid*: every emitted
// cube detects its fault on the independent fault simulator, untestability
// verdicts never contradict the reference engine, and whole-circuit
// coverage never drops below the reference strategy's.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// verifyCube asserts a detected cube really detects its fault on the
// independent fault simulator, for both X-fill polarities.
func verifyCube(t *testing.T, label string, sim *faultsim.Simulator, f faultsim.Fault, c cube.Cube) {
	t.Helper()
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
			t.Fatalf("%s: cube %s (X=%d) does not detect fault %v", label, c, fill, f)
		}
	}
}

// TestMultiStatusSound cross-checks the multiple-backtrace engine against
// the classic engine fault by fault on c17 plus 120 random netlists. The
// strategies may disagree on cubes and even on detected-vs-aborted (their
// decision orders differ), but an untestability *proof* is a theorem about
// the circuit: if one engine proves a fault redundant while the other
// detects it, one of them is broken. Every cube the multi engine emits is
// verified on the independent fault simulator.
func TestMultiStatusSound(t *testing.T) {
	const numRandom = 120
	for seed := uint64(0); seed <= numRandom; seed++ {
		name := "c17"
		if seed > 0 {
			name = fmt.Sprintf("random-%d", seed)
		}
		nl := diffCircuit(t, seed)
		tables, err := NewTables(nl)
		if err != nil {
			t.Fatal(err)
		}
		u := faultsim.NewUniverse(nl)
		sim, err := faultsim.NewSimulatorLanes(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		multi := tables.NewGenerator()
		multi.Strategy = BacktraceMulti
		ref := tables.NewGenerator()
		// A generous limit lets most untestability proofs finish so the
		// soundness comparison has teeth.
		multi.BacktrackLimit = 200
		ref.BacktrackLimit = 200
		for _, f := range u.Faults {
			label := fmt.Sprintf("%s fault %v", name, f)
			mc, ms := multi.Generate(f)
			rc, rs := ref.Generate(f)
			_ = rc
			if ms == StatusUntestable && rs == StatusDetected {
				t.Fatalf("%s: multi proves untestable, reference detects", label)
			}
			if rs == StatusUntestable && ms == StatusDetected {
				t.Fatalf("%s: reference proves untestable, multi detects", label)
			}
			if ms == StatusDetected {
				verifyCube(t, label, sim, f, mc)
			}
		}
	}
}

// TestMultiRunAllCoverageNoLower locks the acceptance property at RunAll
// scale: on the differential circuit set, the multiple backtrace must reach
// at least the classic strategy's coverage, and spend no more backtracks
// doing it.
func TestMultiRunAllCoverageNoLower(t *testing.T) {
	for name, nl := range runAllCircuits(t) {
		u := faultsim.NewUniverse(nl)
		opt := Options{FaultDrop: true, FillSeed: 99, BacktrackLimit: 40}
		ref, err := RunAllCtx(context.Background(), u, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Backtrace = BacktraceMulti
		multi, err := RunAllCtx(context.Background(), u, opt)
		if err != nil {
			t.Fatal(err)
		}
		if multi.Coverage < ref.Coverage {
			t.Errorf("%s: multi coverage %.4f below reference %.4f", name, multi.Coverage, ref.Coverage)
		}
		if multi.Backtracks > ref.Backtracks {
			t.Errorf("%s: multi spent %d backtracks, reference %d", name, multi.Backtracks, ref.Backtracks)
		}
		t.Logf("%s: backtracks %d → %d, aborted %d → %d, coverage %.4f → %.4f",
			name, ref.Backtracks, multi.Backtracks, ref.Aborted, multi.Aborted, ref.Coverage, multi.Coverage)
	}
}

// TestMultiPatternsReachReportedCoverage runs the full multi-strategy
// RunAll flow end to end and confirms the X-filled patterns it shipped
// reproduce the coverage it reported, on the independent fault simulator —
// the same end-to-end property the classic strategy is held to in
// TestRandomCircuitsHighCoverage.
func TestMultiPatternsReachReportedCoverage(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 24, Outputs: 8, Gates: 120, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		u := faultsim.NewUniverse(nl)
		res, err := RunAllCtx(context.Background(), u, Options{FaultDrop: true, FillSeed: seed, Backtrace: BacktraceMulti})
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage < 0.98 {
			t.Errorf("seed %d: coverage %.3f below 0.98", seed, res.Coverage)
		}
		_, cov, err := faultsim.CoverageCtx(context.Background(), u, res.Patterns, faultsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCov := res.Coverage * float64(len(u.Faults)-res.Untestable) / float64(len(u.Faults))
		if cov+1e-9 < wantCov {
			t.Errorf("seed %d: independent fault sim coverage %.3f below ATPG-reported %.3f", seed, cov, wantCov)
		}
	}
}

// TestParseBacktrace pins the CLI flag spellings and the String round trip.
func TestParseBacktrace(t *testing.T) {
	cases := []struct {
		in   string
		want Backtrace
		ok   bool
	}{
		{"scoap", BacktraceSCOAP, true},
		{"", BacktraceSCOAP, true},
		{"multi", BacktraceMulti, true},
		{"fan", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseBacktrace(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseBacktrace(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
	if BacktraceSCOAP.String() != "scoap" || BacktraceMulti.String() != "multi" || Backtrace(9).String() != "unknown" {
		t.Error("Backtrace.String spelling drifted from the -backtrace flag values")
	}
}
