package faultsim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prng"
)

// c17 builds the ISCAS'85 c17 benchmark: 5 inputs, 6 NAND gates, 2 outputs,
// with reconvergent fan-out stems — the smallest standard circuit with
// non-trivial fault-masking structure.
func c17(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New()
	for _, in := range []string{"G1", "G2", "G3", "G6", "G7"} {
		if _, err := n.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	gates := []struct {
		name string
		a, b string
	}{
		{"G10", "G1", "G3"},
		{"G11", "G3", "G6"},
		{"G16", "G2", "G11"},
		{"G19", "G11", "G7"},
		{"G22", "G10", "G16"},
		{"G23", "G16", "G19"},
	}
	for _, g := range gates {
		if _, err := n.AddGate(g.name, netlist.Nand, g.a, g.b); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []string{"G22", "G23"} {
		if err := n.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func randomPatterns(src *prng.Source, count, width int) [][]uint8 {
	patterns := make([][]uint8, count)
	for i := range patterns {
		p := make([]uint8, width)
		for j := range p {
			p[j] = src.Bit()
		}
		patterns[i] = p
	}
	return patterns
}

// detectLanesFull is the full-circuit (non-event-driven) reference for
// DetectLanes: evaluate the whole faulty circuit into the bad arena and
// XOR the outputs. Returns scratch valid until the next Detect call.
func (s *Simulator) detectLanesFull(f Fault) []uint64 {
	s.ensureEval()
	s.evalInto(s.bad, f.Gate, f)
	w := s.w
	diff := s.dbuf
	clear(diff)
	for _, o := range s.u.Net.Outputs {
		for k := 0; k < w; k++ {
			diff[k] |= (s.good[o*w+k] ^ s.bad[o*w+k]) & s.loaded[k]
		}
	}
	// The bad arena now holds full-circuit values without epoch stamps —
	// harmless, because every event-driven Detect bumps the epoch on entry
	// and only reads bad where the stamp matches the new epoch.
	return diff
}

// TestEventDrivenMatchesFullEval asserts that the event-driven W=1 detect
// mask equals exactly the mask of the original full-circuit evaluation for
// every fault of c17 and of randomized circuits, across several pattern
// batches.
func TestEventDrivenMatchesFullEval(t *testing.T) {
	circuits := map[string]*netlist.Netlist{"c17": c17(t)}
	for _, seed := range []uint64{7, 21, 1999} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 24, Outputs: 8, Gates: 150, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits[fmt.Sprintf("random-%d", seed)] = nl
	}
	for name, nl := range circuits {
		t.Run(name, func(t *testing.T) {
			u := NewUniverse(nl)
			event, err := NewSimulatorLanes(u, 1)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewSimulatorLanes(u, 1)
			if err != nil {
				t.Fatal(err)
			}
			src := prng.New(42)
			for batch := 0; batch < 3; batch++ {
				patterns := randomPatterns(src, 64, len(nl.Inputs))
				if err := event.LoadPatterns(patterns); err != nil {
					t.Fatal(err)
				}
				full.AdoptPatterns(event)
				for _, f := range u.Faults {
					got := event.DetectLanes(f)[0]
					want := full.detectLanesFull(f)[0]
					if got != want {
						t.Fatalf("batch %d fault %v: event-driven mask %064b, full-eval mask %064b", batch, f, got, want)
					}
					// The early-exit boolean must agree with the full mask;
					// interleaving it here also checks the two share the
					// simulator's epoch state cleanly.
					if any := event.DetectAny(f); any != (want != 0) {
						t.Fatalf("batch %d fault %v: DetectAny %v, mask %064b", batch, f, any, want)
					}
				}
			}
		})
	}
}

// TestCoverageWorkersBitIdentical asserts that the parallel coverage run
// returns exactly the serial detected slice — not just the same coverage
// fraction — on c17 and randomized circuits. The "chunks" circuit spans
// more sweep chunks than the largest pool tested and ends in a partial
// chunk, so every chunk-claim boundary is crossed. Run it with -race and
// -cpu 1,4,8 to check the chunk claiming.
func TestCoverageWorkersBitIdentical(t *testing.T) {
	circuits := map[string]*netlist.Netlist{"c17": c17(t)}
	for _, seed := range []uint64{3, 11} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 32, Outputs: 12, Gates: 300, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits[fmt.Sprintf("random-%d", seed)] = nl
	}
	chunks, err := netlist.Random(netlist.RandomConfig{Inputs: 48, Outputs: 16, Gates: 450, MaxFan: 3, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	circuits["chunks"] = chunks
	const maxWorkers = 8
	if n := len(NewUniverse(chunks).Faults); n <= maxWorkers*sweepChunk || n%sweepChunk == 0 {
		t.Fatalf("chunks circuit has %d faults; want more than %d and a partial last chunk", n, maxWorkers*sweepChunk)
	}
	for name, nl := range circuits {
		t.Run(name, func(t *testing.T) {
			u := NewUniverse(nl)
			patterns := randomPatterns(prng.New(5), 150, len(nl.Inputs)) // 3 batches, last partial
			serial, serialCov, err := CoverageCtx(context.Background(), u, patterns, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Oracle: every fault simulated on its own, no sweep at all, so
			// a chunk the sweep skipped or visited twice cannot hide behind
			// agreement between pool sizes.
			oracle, err := NewSimulatorLanes(u, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]bool, len(u.Faults))
			for start := 0; start < len(patterns); start += 64 {
				if err := oracle.LoadPatterns(patterns[start:min(start+64, len(patterns))]); err != nil {
					t.Fatal(err)
				}
				for fi, f := range u.Faults {
					want[fi] = want[fi] || oracle.DetectLanes(f)[0] != 0
				}
			}
			for fi := range want {
				if serial[fi] != want[fi] {
					t.Fatalf("fault %v: sweep marked %v, per-fault oracle %v", u.Faults[fi], serial[fi], want[fi])
				}
			}
			for _, workers := range []int{2, 3, maxWorkers, 0} {
				par, parCov, err := CoverageCtx(context.Background(), u, patterns, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if parCov != serialCov {
					t.Fatalf("workers=%d: coverage %v != serial %v", workers, parCov, serialCov)
				}
				for fi := range serial {
					if par[fi] != serial[fi] {
						t.Fatalf("workers=%d fault %v: detected=%v, serial says %v", workers, u.Faults[fi], par[fi], serial[fi])
					}
				}
			}
		})
	}
}

// TestDetectAllMatchesSerialDrop exercises the RunAllCtx drop-loop
// primitive: a pool marking faults over a shared done slice must mark
// exactly the serial set and report the same count.
func TestDetectAllMatchesSerialDrop(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 20, Outputs: 8, Gates: 200, MaxFan: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(nl)
	patterns := randomPatterns(prng.New(9), 8, len(nl.Inputs))

	runPool := func(workers int) ([]bool, int) {
		sims, err := NewSimulatorPoolLanes(u, workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		done := make([]bool, len(u.Faults))
		total := 0
		for _, p := range patterns {
			if err := sims[0].LoadPatterns([][]uint8{p}); err != nil {
				t.Fatal(err)
			}
			for _, s := range sims[1:] {
				s.AdoptPatterns(sims[0])
			}
			n, err := DetectAllCtx(context.Background(), sims, u.Faults, done)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		return done, total
	}

	serialDone, serialTotal := runPool(1)
	for _, workers := range []int{2, 5} {
		parDone, parTotal := runPool(workers)
		if parTotal != serialTotal {
			t.Fatalf("workers=%d: %d detections, serial %d", workers, parTotal, serialTotal)
		}
		for fi := range serialDone {
			if parDone[fi] != serialDone[fi] {
				t.Fatalf("workers=%d fault %v: done=%v, serial says %v", workers, u.Faults[fi], parDone[fi], serialDone[fi])
			}
		}
	}
}
