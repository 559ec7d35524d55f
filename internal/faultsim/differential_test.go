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
// DetectLanes: evaluate the whole faulty circuit, gate by gate in
// topological order with the fault injected, into the bad arena and XOR
// the outputs against the fault-free plane. Returns scratch valid until the
// next Detect call.
func (s *Simulator) detectLanesFull(f Fault) []uint64 {
	s.ensureEval()
	w := s.w
	for _, gi := range s.topo.order {
		g := &s.u.Net.Gates[gi]
		dst := s.bad[gi*w : gi*w+w]
		switch {
		case gi == f.Gate && f.Pin < 0:
			copy(dst, s.stuckPlane(f.Stuck))
		case g.Type == netlist.Input:
			copy(dst, s.good[gi*w:gi*w+w])
		default:
			in := make([][]uint64, len(g.Fanin))
			for pin, fi := range g.Fanin {
				in[pin] = s.bad[fi*w : fi*w+w]
				if gi == f.Gate && pin == f.Pin {
					in[pin] = s.stuckPlane(f.Stuck)
				}
			}
			g.Type.EvalWords(dst, in)
		}
	}
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

// TestEventDrivenMatchesFullEval asserts that the event-driven detect masks
// equal exactly the masks of full-circuit evaluation, and that DetectAny
// agrees with them, for every fault of c17 and of randomized circuits, at
// lane widths 1, 2, 4 and 8, over several batches: full ones, ones whose
// last lane word is partial, and one shorter than a lane word.
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
			for _, w := range []int{1, 2, 4, 8} {
				event, err := NewSimulatorLanes(u, w)
				if err != nil {
					t.Fatal(err)
				}
				full, err := NewSimulatorLanes(u, w)
				if err != nil {
					t.Fatal(err)
				}
				src := prng.New(42)
				for batch, count := range []int{64 * w, 64*w - 13, 64*(w-1) + 1, 37} {
					patterns := randomPatterns(src, count, len(nl.Inputs))
					if err := event.LoadPatterns(patterns); err != nil {
						t.Fatal(err)
					}
					full.AdoptPatterns(event)
					for _, f := range u.Faults {
						got := event.DetectLanes(f)
						want := full.detectLanesFull(f)
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("w=%d batch %d (%d patterns) fault %v word %d: event-driven mask %064b, full-eval mask %064b",
									w, batch, count, f, k, got[k], want[k])
							}
						}
						// The early-exit boolean must agree with the full mask;
						// interleaving it here also checks the two share the
						// simulator's epoch state cleanly.
						if any := event.DetectAny(f); any != anyNonzero(want) {
							t.Fatalf("w=%d batch %d fault %v: DetectAny %v, masks %x", w, batch, f, any, want)
						}
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

// TestCoverageAutoLaneWidthBitIdentical pins the engine-chosen sweep width:
// LaneWords 0 must grade exactly like explicit 1 and 8 — same per-fault
// marks, same coverage — for pattern counts on both sides of every word
// and batch boundary, on c17 and seeded random circuits, serial and
// pooled. Run it with -race and -cpu 1,4,8: the pooled runs share one
// fault-free plane across the workers.
func TestCoverageAutoLaneWidthBitIdentical(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 64: 1, 65: 2, 511: 8, 512: 8, 513: 5, 1000: 8, 4097: 8, 65536: 8} {
		if got := (Options{}).coverageLaneWords(n); got != want {
			t.Errorf("%d patterns: engine chose %d lane words, want %d", n, got, want)
		}
	}
	if got := (Options{LaneWords: 3}).coverageLaneWords(4097); got != 3 {
		t.Errorf("explicit LaneWords 3 resolved to %d", got)
	}
	circuits := map[string]*netlist.Netlist{"c17": c17(t)}
	for _, seed := range []uint64{3, 11} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 32, Outputs: 12, Gates: 300, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits[fmt.Sprintf("random-%d", seed)] = nl
	}
	for name, nl := range circuits {
		u := NewUniverse(nl)
		for _, count := range []int{1, 63, 64, 65, 511, 512, 513, 1000, 4097} {
			patterns := randomPatterns(prng.New(uint64(count)), count, len(nl.Inputs))
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/n=%d/workers=%d", name, count, workers), func(t *testing.T) {
					auto, autoCov, err := CoverageCtx(context.Background(), u, patterns, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for _, lw := range []int{1, 8} {
						got, cov, err := CoverageCtx(context.Background(), u, patterns, Options{Workers: workers, LaneWords: lw})
						if err != nil {
							t.Fatal(err)
						}
						if cov != autoCov {
							t.Fatalf("LaneWords=%d: coverage %v, auto width %v", lw, cov, autoCov)
						}
						for fi := range got {
							if got[fi] != auto[fi] {
								t.Fatalf("LaneWords=%d fault %v: detected=%v, auto width says %v", lw, u.Faults[fi], got[fi], auto[fi])
							}
						}
					}
				})
			}
		}
	}
}
