package faultsim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prng"
)

// laneCircuit builds the i-th randomized differential circuit: small enough
// that every fault of every circuit is affordable, varied enough (inputs,
// outputs, size, fan-in) that the 200-circuit sweep covers reconvergence,
// deep cones and degenerate shapes.
func laneCircuit(t testing.TB, i uint64) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.Random(netlist.RandomConfig{
		Inputs:  5 + int(i%10),
		Outputs: 2 + int(i%5),
		Gates:   20 + int((i*7)%60),
		MaxFan:  2 + int(i%2),
		Seed:    1000 + i,
	})
	if err != nil {
		t.Fatalf("circuit %d: %v", i, err)
	}
	return nl
}

// effPlaneWord returns the simulator's effective faulty value of gate gi in
// lane word k after a Detect call: the bad plane where the current epoch
// stamped a divergence, the fault-free plane everywhere else. This is the
// full observable simulation state a lane width must reproduce.
func effPlaneWord(s *Simulator, gi, k int) uint64 {
	if s.stamp[gi] == s.epoch {
		return s.bad[gi*s.w+k]
	}
	return s.good[gi*s.w+k]
}

// diffLanesAgainstReference loads count patterns into one wide simulator and
// into ceil(count/64) single-word reference simulators (one per lane word)
// and, for every fault, requires the wide engine's detect mask AND its full
// good/bad plane state to match the reference lane word by lane word.
func diffLanesAgainstReference(t *testing.T, nl *netlist.Netlist, w, count int, patSeed uint64) {
	t.Helper()
	u := NewUniverse(nl)
	wide, err := NewSimulatorLanes(u, w)
	if err != nil {
		t.Fatal(err)
	}
	patterns := randomPatterns(prng.New(patSeed), count, len(nl.Inputs))
	if err := wide.LoadPatterns(patterns); err != nil {
		t.Fatal(err)
	}
	chunks := (count + 63) / 64
	refs := make([]*Simulator, chunks)
	for k := range refs {
		ref, err := NewSimulatorLanes(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 64*k, min(64*(k+1), count)
		if err := ref.LoadPatterns(patterns[lo:hi]); err != nil {
			t.Fatal(err)
		}
		refs[k] = ref
	}
	wantMask := make([]uint64, w)
	for _, f := range u.Faults {
		got := wide.DetectLanes(f)
		clear(wantMask)
		for k, ref := range refs {
			wantMask[k] = ref.DetectLanes(f)[0]
		}
		for k := 0; k < w; k++ {
			if got[k] != wantMask[k] {
				t.Fatalf("w=%d count=%d fault %v lane word %d: wide mask %064b, W=1 reference %064b",
					w, count, f, k, got[k], wantMask[k])
			}
		}
		if any := wide.DetectAny(f); any != anyNonzero(wantMask) {
			t.Fatalf("w=%d count=%d fault %v: DetectAny=%v, reference masks %v", w, count, f, any, wantMask)
		}
		if !wide.topo.observable[f.Gate] {
			continue // Detect returned before touching planes; state is stale
		}
		// Re-run the full (non-early) propagation so the plane state
		// reflects this fault, then compare every gate's effective value.
		wide.DetectLanes(f)
		for k, ref := range refs {
			ref.DetectLanes(f)
			for gi := 0; gi < nl.NumGates(); gi++ {
				if gw, rw := effPlaneWord(wide, gi, k), effPlaneWord(ref, gi, 0); gw != rw {
					t.Fatalf("w=%d count=%d fault %v gate %d lane word %d: wide plane %064b, reference %064b",
						w, count, f, gi, k, gw, rw)
				}
			}
		}
	}
}

func anyNonzero(words []uint64) bool {
	for _, v := range words {
		if v != 0 {
			return true
		}
	}
	return false
}

// TestSimulatorLaneWidthDifferential is the lane-width lock: across c17 and
// 200 randomized circuits, every lane width in {2,4,8} must reproduce the
// single-word engine's detect masks and full good/bad plane state lane word
// by lane word, including batches whose last lane word is partially loaded.
// Run with -race (CI does) to confirm the engines share no hidden state.
func TestSimulatorLaneWidthDifferential(t *testing.T) {
	widths := []int{2, 4, 8}
	// c17 at every width, full and partial batches.
	for _, w := range widths {
		nl := c17(t)
		diffLanesAgainstReference(t, nl, w, 64*w, 7)    // full capacity
		diffLanesAgainstReference(t, nl, w, 64*w-13, 8) // partial last word
	}
	// 200 randomized circuits; the batch size cycles through full capacity,
	// a partial last word, and a batch shorter than one word.
	for i := uint64(0); i < 200; i++ {
		nl := laneCircuit(t, i)
		w := widths[i%3]
		count := 64 * w
		switch i % 4 {
		case 1:
			count -= 1 + int(i%63)
		case 2:
			count = 64*(w-1) + 1 // exactly one bit in the last word
		case 3:
			count = 1 + int(i%40) // shorter than a single lane word
		}
		diffLanesAgainstReference(t, nl, w, count, 300+i)
	}
}

// TestLaneOverflowBoundaries pins the typed capacity error on every loading
// path: counts of exactly Capacity load fine, Capacity+1 fails with
// ErrLaneOverflow (checkable via errors.Is), and empty batches are rejected
// with a plain validation error, not an overflow.
func TestLaneOverflowBoundaries(t *testing.T) {
	nl := c17(t)
	u := NewUniverse(nl)
	for _, w := range []int{1, 2, 8} {
		s, err := NewSimulatorLanes(u, w)
		if err != nil {
			t.Fatal(err)
		}
		cap := 64 * w
		if s.Capacity() != cap {
			t.Fatalf("w=%d: Capacity=%d, want %d", w, s.Capacity(), cap)
		}
		cases := []struct {
			name     string
			count    int
			overflow bool // expect ErrLaneOverflow
			ok       bool // expect success
		}{
			{"zero", 0, false, false},
			{"one", 1, false, true},
			{"exactly-capacity", cap, false, true},
			{"capacity-plus-one", cap + 1, true, false},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("w=%d/LoadPatterns/%s", w, tc.name), func(t *testing.T) {
				err := s.LoadPatterns(randomPatterns(prng.New(1), tc.count, len(nl.Inputs)))
				checkOverflow(t, err, tc.overflow, tc.ok)
			})
			t.Run(fmt.Sprintf("w=%d/LoadPacked/%s", w, tc.name), func(t *testing.T) {
				err := s.LoadPacked(make([]uint64, len(nl.Inputs)*w), tc.count)
				checkOverflow(t, err, tc.overflow, tc.ok)
			})
		}
		// LoadPacked also validates the packed word count itself.
		if err := s.LoadPacked(make([]uint64, len(nl.Inputs)*w+1), 1); err == nil {
			t.Fatalf("w=%d: LoadPacked accepted a wrong word count", w)
		} else if errors.Is(err, ErrLaneOverflow) {
			t.Fatalf("w=%d: word-count error misreported as ErrLaneOverflow: %v", w, err)
		}
		// The Capacity+1-th AppendPattern must overflow with the typed error.
		if err := s.LoadPatterns(randomPatterns(prng.New(2), cap, len(nl.Inputs))); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendPattern(make([]uint8, len(nl.Inputs))); !errors.Is(err, ErrLaneOverflow) {
			t.Fatalf("w=%d: AppendPattern past capacity returned %v, want ErrLaneOverflow", w, err)
		}
	}
	if _, err := NewSimulatorLanes(u, 0); err == nil {
		t.Fatal("NewSimulatorLanes accepted 0 lane words")
	}
	if _, err := NewSimulatorLanes(u, MaxLaneWords+1); err == nil {
		t.Fatalf("NewSimulatorLanes accepted %d lane words", MaxLaneWords+1)
	}
}

func checkOverflow(t *testing.T, err error, wantOverflow, wantOK bool) {
	t.Helper()
	switch {
	case wantOK:
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	case wantOverflow:
		if !errors.Is(err, ErrLaneOverflow) {
			t.Fatalf("got %v, want ErrLaneOverflow", err)
		}
	default:
		if err == nil {
			t.Fatal("invalid batch accepted")
		}
		if errors.Is(err, ErrLaneOverflow) {
			t.Fatalf("validation error misreported as ErrLaneOverflow: %v", err)
		}
	}
}

// FuzzDetectLanes cross-checks the wide-lane engine against the single-word
// engine on fuzzer-shaped circuits and pattern batches: for every fault of
// the generated netlist, DetectLanes at W ∈ {2,4,8} must equal the W=1
// masks chunk by chunk, and DetectAny must agree with the mask. CI runs a
// 10-second smoke over the seed corpus.
func FuzzDetectLanes(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(100))
	f.Add(uint64(42), uint8(1), uint8(7))
	f.Add(uint64(2008), uint8(2), uint8(255))
	f.Add(uint64(7777), uint8(5), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, wsel, countSel uint8) {
		nl, err := netlist.Random(netlist.RandomConfig{
			Inputs:  3 + int(seed%14),
			Outputs: 1 + int((seed>>4)%8),
			Gates:   8 + int((seed>>8)%72),
			MaxFan:  2 + int((seed>>16)%3),
			Seed:    seed,
		})
		if err != nil {
			t.Skip() // unbuildable parameter combination
		}
		w := []int{2, 4, 8}[int(wsel)%3]
		count := 1 + int(countSel)%(64*w)
		u := NewUniverse(nl)
		wide, err := NewSimulatorLanes(u, w)
		if err != nil {
			t.Fatal(err)
		}
		patterns := randomPatterns(prng.New(seed^0x9e3779b97f4a7c15), count, len(nl.Inputs))
		if err := wide.LoadPatterns(patterns); err != nil {
			t.Fatal(err)
		}
		chunks := (count + 63) / 64
		refs := make([]*Simulator, chunks)
		for k := range refs {
			ref, err := NewSimulatorLanes(u, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.LoadPatterns(patterns[64*k : min(64*(k+1), count)]); err != nil {
				t.Fatal(err)
			}
			refs[k] = ref
		}
		for _, fault := range u.Faults {
			got := wide.DetectLanes(fault)
			anyWant := false
			for k := 0; k < w; k++ {
				var want uint64
				if k < chunks {
					want = refs[k].DetectLanes(fault)[0]
				}
				if got[k] != want {
					t.Fatalf("w=%d count=%d fault %v word %d: wide %064b, reference %064b", w, count, fault, k, got[k], want)
				}
				anyWant = anyWant || want != 0
			}
			if any := wide.DetectAny(fault); any != anyWant {
				t.Fatalf("w=%d count=%d fault %v: DetectAny=%v, reference %v", w, count, fault, any, anyWant)
			}
		}
	})
}

// BenchmarkSimulatorArenaBuild measures what the arena layout buys at
// scale: constructing a simulator over a 100k-gate circuit is a fixed
// handful of slab allocations (plane arenas, stamp arrays, level buckets)
// regardless of gate count. The shared topology is built once outside the
// loop, as a worker pool would.
func BenchmarkSimulatorArenaBuild(b *testing.B) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 2000, Outputs: 800, Gates: 100000, MaxFan: 3, Seed: 2008})
	if err != nil {
		b.Fatal(err)
	}
	u := NewUniverse(nl)
	if _, err := NewSimulatorLanes(u, 1); err != nil { // warm the shared topology
		b.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("lanewords=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSimulatorLanes(u, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectAllLaneWidth measures the lane-width win on the fixed
// paper-scale coverage workload: full detect masks for every fault of a
// 4000-gate core against 512 pseudorandom patterns (the Coverage sweep
// shape). W=1 walks each fault's cone eight times — paying the per-gate
// scheduling, stamping and reconvergence overhead on every pass — where
// W=8 walks it once with eight-word planes; -benchmem shows the arena
// layout keeps allocations flat across widths (the slabs are built outside
// the loop).
func BenchmarkDetectAllLaneWidth(b *testing.B) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 96, Outputs: 32, Gates: 4000, MaxFan: 3, Seed: 2008})
	if err != nil {
		b.Fatal(err)
	}
	u := NewUniverse(nl)
	const total = 512
	patterns := randomPatterns(prng.New(9), total, len(nl.Inputs))
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("lanewords=%d", w), func(b *testing.B) {
			sim, err := NewSimulatorLanes(u, w)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-pack each 64×w batch so the timed loop measures the
			// sweeps, not the bit slicing.
			batch := sim.Capacity()
			var packed [][]uint64
			var counts []int
			for start := 0; start < total; start += batch {
				end := min(start+batch, total)
				words := make([]uint64, len(nl.Inputs)*w)
				for p := start; p < end; p++ {
					word, bit := (p-start)>>6, uint64(1)<<uint((p-start)&63)
					for ii := range nl.Inputs {
						if patterns[p][ii] != 0 {
							words[ii*w+word] |= bit
						}
					}
				}
				packed = append(packed, words)
				counts = append(counts, end-start)
			}
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for bi := range packed {
					if err := sim.LoadPacked(packed[bi], counts[bi]); err != nil {
						b.Fatal(err)
					}
					for _, f := range u.Faults {
						for _, m := range sim.DetectLanes(f) {
							sink ^= m
						}
					}
				}
			}
			benchSink = sink
		})
	}
}

// benchSink defeats dead-code elimination of the benchmarked detect masks.
var benchSink uint64
