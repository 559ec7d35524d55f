package atpg

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// TestRunAllLaneWordsBitIdentical pins the lane-width bit-identity contract
// end to end: for every (workers, lane width, backtrace) combination the
// full RunAll output — cubes, patterns, detected/untestable/aborted
// counters, backtracks and coverage — must equal the per-pattern serial
// reference. Widening the sweep only changes the drop cadence, and the
// dropPending check at each commit makes the cadence unobservable. Run with
// -race (CI does) to check the chunked sweeps under the pipeline.
func TestRunAllLaneWordsBitIdentical(t *testing.T) {
	for name, nl := range runAllCircuits(t) {
		for _, strategy := range []Backtrace{BacktraceSCOAP, BacktraceMulti} {
			t.Run(fmt.Sprintf("%s/%v", name, strategy), func(t *testing.T) {
				u := faultsim.NewUniverse(nl)
				opt := Options{FaultDrop: true, FillSeed: 99, BacktrackLimit: 40, Backtrace: strategy}
				want, err := runAllPerPattern(u, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					for _, lw := range []int{1, 2, 4, 8} {
						o := opt
						o.Workers = workers
						o.LaneWords = lw
						got, err := RunAllCtx(context.Background(), u, o)
						if err != nil {
							t.Fatal(err)
						}
						diffResults(t, fmt.Sprintf("workers=%d lanewords=%d", workers, lw), got, want)
					}
				}
			})
		}
	}
}

// TestCheckpointResumeAcrossLaneWidths covers the capacity-independence of
// the checkpoint replay: a checkpoint taken by a producer running one lane
// width must resume bit-identically under a different width in either
// direction (wide producer → narrow resumer replays sweeps the producer had
// not flushed yet; narrow → wide re-batches them into wider sweeps).
func TestCheckpointResumeAcrossLaneWidths(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 40, Outputs: 12, Gates: 360, MaxFan: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	base := Options{FaultDrop: true, FillSeed: 99, BacktrackLimit: 40, Workers: 1}
	want, err := RunAllCtx(context.Background(), u, base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ crashLanes, resumeLanes, stopAt int }{
		{8, 1, 2}, // wide producer, narrow resumer: replay spans many narrow sweeps
		{1, 8, 2}, // narrow producer, wide resumer: replay fits one wide batch
		{4, 2, 4},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		var blob []byte
		seen := 0
		opt := base
		opt.LaneWords = tc.crashLanes
		opt.CheckpointEvery = 5
		opt.Checkpoint = func(cp *Checkpoint) {
			seen++
			if seen == tc.stopAt {
				b, err := cp.MarshalBinary()
				if err != nil {
					t.Errorf("MarshalBinary: %v", err)
				}
				blob = b
				cancel()
			}
		}
		_, err := RunAllCtx(ctx, u, opt)
		cancel()
		if blob == nil {
			t.Fatalf("lanes=%d stop=%d: run finished before checkpoint %d (seen %d)", tc.crashLanes, tc.stopAt, tc.stopAt, seen)
		}
		if err == nil {
			t.Fatalf("lanes=%d stop=%d: cancelled run returned nil error", tc.crashLanes, tc.stopAt)
		}
		var cp Checkpoint
		if err := cp.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		resumeOpt := base
		resumeOpt.LaneWords = tc.resumeLanes
		resumeOpt.Resume = &cp
		got, err := RunAllCtx(context.Background(), u, resumeOpt)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("resume lanes %d→%d", tc.crashLanes, tc.resumeLanes), got, want)
	}
}

// BenchmarkRunAllLaneWidth measures the whole ATPG pipeline across lane
// widths on a drop-heavy core: wider lanes amortize each committed
// pattern's sweep over up to 512 lanes. Counters are bit-identical across
// the sub-benchmarks; only the sweep cadence differs.
func BenchmarkRunAllLaneWidth(b *testing.B) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 400, Outputs: 160, Gates: 800, MaxFan: 3, Seed: 2008})
	if err != nil {
		b.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	for _, lw := range []int{1, 8} {
		b.Run(fmt.Sprintf("lanewords=%d", lw), func(b *testing.B) {
			opt := Options{FaultDrop: true, FillSeed: 7, Workers: 1, BacktrackLimit: 20, LaneWords: lw}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunAllCtx(context.Background(), u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
