package faultsim

import (
	"context"
	"runtime"
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

// TestAppendPatternMatchesLoadPatterns asserts the two batch-building
// paths are interchangeable at lane widths 1, 3 and 8, with full and
// partial last words: bit-sliced LoadPatterns and incremental
// AppendPattern (including appends split around Detect calls, which force
// the lazy fault-free evaluation mid-batch) must both leave the hand-packed
// input planes and lane mask, and yield identical detect masks for every
// fault.
func TestAppendPatternMatchesLoadPatterns(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 16, Outputs: 5, Gates: 80, MaxFan: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(nl)
	ni := len(nl.Inputs)
	for _, w := range []int{1, 3, 8} {
		for _, count := range []int{1, 3, 64, 64*w - 5, 64 * w} {
			patterns := randomPatterns(prng.New(uint64(100*w+count)), count, ni)
			packed := make([]uint64, ni*w)
			for pi, p := range patterns {
				for ii, b := range p {
					packed[ii*w+pi/64] |= uint64(b) << uint(pi%64)
				}
			}
			wantLoaded := make([]uint64, w)
			for pi := range patterns {
				wantLoaded[pi/64] |= 1 << uint(pi%64)
			}
			viaLoad, _ := NewSimulatorLanes(u, w)
			if err := viaLoad.LoadPatterns(patterns); err != nil {
				t.Fatal(err)
			}
			viaAppend, _ := NewSimulatorLanes(u, w)
			if err := viaAppend.ResetPatterns(); err != nil {
				t.Fatal(err)
			}
			for pi, p := range patterns {
				if err := viaAppend.AppendPattern(p); err != nil {
					t.Fatal(err)
				}
				if pi == 0 {
					viaAppend.DetectLanes(u.Faults[0]) // force a mid-batch evaluation
				}
			}
			for name, sim := range map[string]*Simulator{"LoadPatterns": viaLoad, "AppendPattern": viaAppend} {
				if got := sim.PatternCount(); got != count {
					t.Fatalf("W=%d count=%d: %s PatternCount %d", w, count, name, got)
				}
				for k := range wantLoaded {
					if sim.loaded[k] != wantLoaded[k] {
						t.Fatalf("W=%d count=%d: %s lane mask word %d %016x, want %016x", w, count, name, k, sim.loaded[k], wantLoaded[k])
					}
				}
				for ii, gi := range nl.Inputs {
					for k := 0; k < w; k++ {
						if got, want := sim.good[gi*w+k], packed[ii*w+k]; got != want {
							t.Fatalf("W=%d count=%d: %s input %d word %d %016x, hand-packed %016x", w, count, name, ii, k, got, want)
						}
					}
				}
			}
			for _, f := range u.Faults {
				want := append([]uint64(nil), viaLoad.DetectLanes(f)...)
				got := viaAppend.DetectLanes(f)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("W=%d count=%d fault %v: AppendPattern mask word %d %064b, LoadPatterns %064b", w, count, f, k, got[k], want[k])
					}
				}
			}
		}
	}
}

func TestAppendPatternValidation(t *testing.T) {
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

// BenchmarkDetectEngine compares the event-driven one-word DetectLanes against
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

// TestUniverseExactSize pins NewUniverse's count-then-fill build: the
// fault list is one exactly sized allocation (no append growth), and the
// whole universe costs a fixed handful of allocations however large the
// circuit is.
func TestUniverseExactSize(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 96, Outputs: 32, Gates: 4000, MaxFan: 3, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*netlist.Netlist{"andOr": andOr(t), "random-4000": nl} {
		u := NewUniverse(n)
		if len(u.Faults) == 0 || cap(u.Faults) != len(u.Faults) {
			t.Errorf("%s: %d faults in a slice of capacity %d", name, len(u.Faults), cap(u.Faults))
		}
		// The loads scratch, the Universe and its fault list.
		if allocs := testing.AllocsPerRun(5, func() { NewUniverse(n) }); allocs > 3 {
			t.Errorf("%s: NewUniverse made %v allocations, want at most 3", name, allocs)
		}
	}
}

// TestAppendPatternLowBit keeps AppendPattern's p[i]&1 rule: a pattern
// byte loads as its low bit, so 2 loads as 0 and 3 as 1, in every lane and
// without spilling into the next one.
func TestAppendPatternLowBit(t *testing.T) {
	n := andOr(t)
	u := NewUniverse(n)
	for _, w := range []int{1, 2} {
		sim, _ := NewSimulatorLanes(u, w)
		want := make([]uint64, len(n.Inputs)*w)
		for lane := 0; lane < 64*w; lane++ {
			p := []uint8{2 + uint8(lane%2), 3 - uint8(lane%2), uint8(lane % 4)}
			if err := sim.AppendPattern(p); err != nil {
				t.Fatal(err)
			}
			for ii, b := range p {
				want[ii*w+lane/64] |= uint64(b&1) << uint(lane%64)
			}
		}
		for ii, gi := range n.Inputs {
			for k := 0; k < w; k++ {
				if got := sim.good[gi*w+k]; got != want[ii*w+k] {
					t.Errorf("W=%d input %d word %d: %016x, want %016x", w, ii, k, got, want[ii*w+k])
				}
			}
		}
	}
}

// TestPoolSizeFollowsGOMAXPROCS pins the Workers ≤ 0 default to the
// scheduler's parallelism, not the host's CPU count: under GOMAXPROCS=1 a
// default pool is one simulator, whatever the machine has.
func TestPoolSizeFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{0, -1} {
		if got := (Options{Workers: workers}).PoolSize(1000); got != 1 {
			t.Errorf("Workers=%d under GOMAXPROCS=1: PoolSize(1000)=%d, want 1", workers, got)
		}
	}
	if got := (Options{Workers: 3}).PoolSize(1000); got != 3 {
		t.Errorf("explicit Workers=3: PoolSize(1000)=%d", got)
	}
	if got := (Options{Workers: 3}).PoolSize(2); got != 2 {
		t.Errorf("Workers=3 over 2 faults: PoolSize=%d, want 2", got)
	}
}
