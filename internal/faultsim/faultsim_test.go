package faultsim

import (
	"context"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prng"
)

func andOr(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New()
	n.AddInput("a")
	n.AddInput("b")
	n.AddInput("c")
	if _, err := n.AddGate("ab", netlist.And, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGate("y", netlist.Or, "ab", "c"); err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput("y"); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestUniverseCollapsing(t *testing.T) {
	n := andOr(t)
	u := NewUniverse(n)
	// No fan-out stems here (every signal drives one load), so only output
	// faults survive: 5 signals × 2 = 10 faults.
	if len(u.Faults) != 10 {
		t.Errorf("got %d faults, want 10: %v", len(u.Faults), u.Faults)
	}
}

func TestUniverseKeepsBranchFaults(t *testing.T) {
	n := netlist.New()
	n.AddInput("a")
	n.AddInput("b")
	n.AddGate("p", netlist.And, "a", "b")
	n.AddGate("q", netlist.Or, "a", "b") // a and b fan out to two gates
	n.MarkOutput("p")
	n.MarkOutput("q")
	u := NewUniverse(n)
	// 4 signals × 2 output faults + 2 gates × 2 pins × 2 branch faults.
	if len(u.Faults) != 8+8 {
		t.Errorf("got %d faults, want 16", len(u.Faults))
	}
}

func TestDetectMaskKnownFault(t *testing.T) {
	n := andOr(t)
	u := NewUniverse(n)
	sim, err := NewSimulatorLanes(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pattern (1,1,0) sets ab=1, y=1. Fault ab/sa0 flips y → detected.
	// Pattern (0,0,1) gives y=1 via c; ab/sa0 is not observable.
	if err := sim.LoadPatterns([][]uint8{{1, 1, 0}, {0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	abIdx, _ := n.Index("ab")
	mask := sim.DetectLanes(Fault{Gate: abIdx, Pin: -1, Stuck: 0})[0]
	if mask != 0b01 {
		t.Errorf("detect mask = %b, want 01", mask)
	}
	// y stuck-at-1 is detected only where y would be 0: neither pattern.
	yIdx, _ := n.Index("y")
	if m := sim.DetectLanes(Fault{Gate: yIdx, Pin: -1, Stuck: 1})[0]; m != 0 {
		t.Errorf("y/sa1 mask = %b, want 0", m)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// A 64-pattern detect mask must equal the OR of single-pattern
	// simulations.
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 16, Outputs: 5, Gates: 60, MaxFan: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(nl)
	sim, _ := NewSimulatorLanes(u, 1)
	src := prng.New(3)
	patterns := make([][]uint8, 64)
	for i := range patterns {
		p := make([]uint8, 16)
		for j := range p {
			p[j] = src.Bit()
		}
		patterns[i] = p
	}
	if err := sim.LoadPatterns(patterns); err != nil {
		t.Fatal(err)
	}
	serial, _ := NewSimulatorLanes(u, 1)
	for _, f := range u.Faults[:40] {
		batch := sim.DetectLanes(f)[0]
		for pi, p := range patterns {
			if err := serial.LoadPatterns([][]uint8{p}); err != nil {
				t.Fatal(err)
			}
			got := serial.DetectLanes(f)[0] & 1
			want := batch >> uint(pi) & 1
			if got != want {
				t.Fatalf("fault %v pattern %d: serial %d vs batch %d", f, pi, got, want)
			}
		}
	}
}

func TestCoverageExhaustivePatterns(t *testing.T) {
	// All 8 input patterns of the AND-OR circuit detect every fault.
	n := andOr(t)
	u := NewUniverse(n)
	var patterns [][]uint8
	for v := 0; v < 8; v++ {
		patterns = append(patterns, []uint8{uint8(v) & 1, uint8(v>>1) & 1, uint8(v>>2) & 1})
	}
	_, cov, err := CoverageCtx(context.Background(), u, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cov != 1.0 {
		t.Errorf("exhaustive coverage = %.3f, want 1.0", cov)
	}
}

// TestLoadPackedMatchesLoadPatterns asserts the three batch-building paths
// are interchangeable: bit-sliced LoadPatterns, incremental AppendPattern
// (including appends split around Detect calls, which force the lazy
// fault-free evaluation mid-batch), and pre-packed LoadPacked must yield
// identical detect masks for every fault.
func TestLoadPackedMatchesLoadPatterns(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 16, Outputs: 5, Gates: 80, MaxFan: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(nl)
	for _, count := range []int{1, 3, 64} {
		patterns := randomPatterns(prng.New(uint64(count)), count, 16)
		ref, _ := NewSimulatorLanes(u, 1)
		if err := ref.LoadPatterns(patterns); err != nil {
			t.Fatal(err)
		}
		packed := make([]uint64, 16)
		for pi, p := range patterns {
			for ii, b := range p {
				if b != 0 {
					packed[ii] |= 1 << uint(pi)
				}
			}
		}
		viaPacked, _ := NewSimulatorLanes(u, 1)
		// Lanes at or above count must be masked off even if set.
		if count < 64 {
			packed[0] |= 1 << uint(count)
		}
		if err := viaPacked.LoadPacked(packed, count); err != nil {
			t.Fatal(err)
		}
		viaAppend, _ := NewSimulatorLanes(u, 1)
		viaAppend.ResetPatterns()
		for pi, p := range patterns {
			if err := viaAppend.AppendPattern(p); err != nil {
				t.Fatal(err)
			}
			if pi == 0 {
				viaAppend.DetectLanes(u.Faults[0]) // force a mid-batch evaluation
			}
		}
		if got := viaPacked.PatternCount(); got != count {
			t.Fatalf("count=%d: LoadPacked PatternCount %d", count, got)
		}
		if got := viaAppend.PatternCount(); got != count {
			t.Fatalf("count=%d: AppendPattern PatternCount %d", count, got)
		}
		for _, f := range u.Faults {
			want := ref.DetectLanes(f)[0]
			if got := viaPacked.DetectLanes(f)[0]; got != want {
				t.Fatalf("count=%d fault %v: LoadPacked mask %064b, want %064b", count, f, got, want)
			}
			if got := viaAppend.DetectLanes(f)[0]; got != want {
				t.Fatalf("count=%d fault %v: AppendPattern mask %064b, want %064b", count, f, got, want)
			}
		}
	}
}

func TestAppendAndPackedValidation(t *testing.T) {
	n := andOr(t)
	sim, _ := NewSimulatorLanes(NewUniverse(n), 1)
	if err := sim.AppendPattern([]uint8{1, 0}); err == nil {
		t.Error("short pattern accepted by AppendPattern")
	}
	for i := 0; i < 64; i++ {
		if err := sim.AppendPattern([]uint8{1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.AppendPattern([]uint8{1, 0, 1}); err == nil {
		t.Error("65th pattern accepted")
	}
	if err := sim.LoadPacked(make([]uint64, 2), 4); err == nil {
		t.Error("wrong word count accepted by LoadPacked")
	}
	if err := sim.LoadPacked(make([]uint64, 3), 0); err == nil {
		t.Error("zero-lane LoadPacked accepted")
	}
	if err := sim.LoadPacked(make([]uint64, 3), 65); err == nil {
		t.Error("65-lane LoadPacked accepted")
	}
}

func TestLoadPatternsValidation(t *testing.T) {
	n := andOr(t)
	sim, _ := NewSimulatorLanes(NewUniverse(n), 1)
	if err := sim.LoadPatterns(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := sim.LoadPatterns([][]uint8{{1, 0}}); err == nil {
		t.Error("short pattern accepted")
	}
}

func BenchmarkFaultSim64Patterns(b *testing.B) {
	nl, _ := netlist.Random(netlist.RandomConfig{Inputs: 64, Outputs: 16, Gates: 600, MaxFan: 3, Seed: 5})
	u := NewUniverse(nl)
	sim, _ := NewSimulatorLanes(u, 1)
	src := prng.New(1)
	patterns := make([][]uint8, 64)
	for i := range patterns {
		p := make([]uint8, 64)
		for j := range p {
			p[j] = src.Bit()
		}
		patterns[i] = p
	}
	sim.LoadPatterns(patterns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.DetectLanes(u.Faults[i%len(u.Faults)])
	}
}

// BenchmarkDetectAllBatchWidth isolates the drop-loop lane-waste fix: the
// same 64 patterns swept over the fault universe as one full-width batch
// versus 64 single-pattern sweeps (the shape of the seed's drop loop,
// which left 63 of the simulator's word lanes empty on every sweep).
func BenchmarkDetectAllBatchWidth(b *testing.B) {
	nl, _ := netlist.Random(netlist.RandomConfig{Inputs: 96, Outputs: 32, Gates: 4000, MaxFan: 3, Seed: 2008})
	u := NewUniverse(nl)
	sim, err := NewSimulatorLanes(u, 1)
	if err != nil {
		b.Fatal(err)
	}
	patterns := randomPatterns(prng.New(1), 64, 96)
	sims := []*Simulator{sim}
	b.Run("batch=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			detected := make([]bool, len(u.Faults))
			if err := sim.LoadPatterns(patterns); err != nil {
				b.Fatal(err)
			}
			DetectAllCtx(context.Background(), sims, u.Faults, detected)
		}
	})
	b.Run("batch=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			detected := make([]bool, len(u.Faults))
			for _, p := range patterns {
				if err := sim.LoadPatterns([][]uint8{p}); err != nil {
					b.Fatal(err)
				}
				DetectAllCtx(context.Background(), sims, u.Faults, detected)
			}
		}
	})
}

// BenchmarkDetectEngine compares the event-driven W=1 DetectLanes against
// the full-circuit reference evaluation on the same universe — the
// single-core speedup of the cone-limited hot path, independent of the
// worker pool.
func BenchmarkDetectEngine(b *testing.B) {
	nl, _ := netlist.Random(netlist.RandomConfig{Inputs: 96, Outputs: 32, Gates: 4000, MaxFan: 3, Seed: 2008})
	u := NewUniverse(nl)
	sim, err := NewSimulatorLanes(u, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := prng.New(1)
	patterns := make([][]uint8, 64)
	for i := range patterns {
		p := make([]uint8, 96)
		for j := range p {
			p[j] = src.Bit()
		}
		patterns[i] = p
	}
	if err := sim.LoadPatterns(patterns); err != nil {
		b.Fatal(err)
	}
	b.Run("event-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.DetectLanes(u.Faults[i%len(u.Faults)])
		}
	})
	b.Run("full-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.detectLanesFull(u.Faults[i%len(u.Faults)])
		}
	})
}
