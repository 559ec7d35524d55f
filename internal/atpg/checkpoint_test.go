package atpg

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// checkpointCore builds a circuit big enough for many commits and several
// 64-pattern sweeps, so checkpoints land in every phase of the batching
// machinery.
func checkpointCore(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 40, Outputs: 12, Gates: 360, MaxFan: 3, Seed: 7})
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	return nl
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Detected != want.Detected || got.Untestable != want.Untestable ||
		got.Aborted != want.Aborted || got.Backtracks != want.Backtracks {
		t.Fatalf("%s: counters (det=%d unt=%d ab=%d bt=%d) != (det=%d unt=%d ab=%d bt=%d)",
			label, got.Detected, got.Untestable, got.Aborted, got.Backtracks,
			want.Detected, want.Untestable, want.Aborted, want.Backtracks)
	}
	if got.Coverage != want.Coverage {
		t.Fatalf("%s: coverage %v != %v", label, got.Coverage, want.Coverage)
	}
	if got.Cubes.Len() != want.Cubes.Len() {
		t.Fatalf("%s: %d cubes != %d", label, got.Cubes.Len(), want.Cubes.Len())
	}
	for i := range want.Cubes.Cubes {
		if got.Cubes.Cubes[i].String() != want.Cubes.Cubes[i].String() {
			t.Fatalf("%s: cube %d differs:\n got %s\nwant %s", label, i, got.Cubes.Cubes[i], want.Cubes.Cubes[i])
		}
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatalf("%s: patterns differ (%d vs %d)", label, len(got.Patterns), len(want.Patterns))
	}
}

// TestCheckpointResumeBitIdentical is the core recovery guarantee: cancel
// a run at each of its first few checkpoints, resume from the serialized
// snapshot, and require the stitched-together result to be bit-identical
// to the uninterrupted run — across serial and pipelined execution on
// both sides of the crash.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	u := faultsim.NewUniverse(checkpointCore(t))
	tables, err := NewTables(u.Net)
	if err != nil {
		t.Fatalf("NewTables: %v", err)
	}
	base := Options{FaultDrop: true, FillSeed: 99, BacktrackLimit: 40, Tables: tables, Workers: 1}
	want, err := RunAllCtx(context.Background(), u, base)
	if err != nil {
		t.Fatalf("uninterrupted RunAll: %v", err)
	}
	if want.Cubes.Len() < 20 {
		t.Fatalf("core too easy for a checkpoint test: only %d cubes", want.Cubes.Len())
	}

	// Crash-side and resume-side worker counts cross serial and pipelined
	// execution; varying stopAt lands checkpoints before and after the
	// first 64-pattern sweep.
	cases := []struct{ crashWorkers, resumeWorkers, stopAt int }{
		{1, 4, 1},
		{4, 1, 3},
		{4, 4, 2},
		{1, 1, 5},
	}
	for _, tc := range cases {
		// Run until the stopAt-th checkpoint, capturing its bytes, then
		// cancel.
		ctx, cancel := context.WithCancel(context.Background())
		var blob []byte
		seen := 0
		opt := base
		opt.Workers = tc.crashWorkers
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
			t.Fatalf("w=%d stop=%d: run finished before checkpoint %d (seen %d)", tc.crashWorkers, tc.stopAt, tc.stopAt, seen)
		}
		if err == nil {
			t.Fatalf("w=%d stop=%d: cancelled run returned nil error", tc.crashWorkers, tc.stopAt)
		}

		var cp Checkpoint
		if err := cp.UnmarshalBinary(blob); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if !cp.Matches(u) {
			t.Fatalf("checkpoint does not match its own universe")
		}
		resumeOpt := base
		resumeOpt.Workers = tc.resumeWorkers
		resumeOpt.Resume = &cp
		got, err := RunAllCtx(context.Background(), u, resumeOpt)
		if err != nil {
			t.Fatalf("resumed RunAll: %v", err)
		}
		sameResult(t, "resume", got, want)
	}
}

// TestCheckpointRoundTrip pins the binary codec: marshal a mid-run
// snapshot, unmarshal it, and compare field by field.
func TestCheckpointRoundTrip(t *testing.T) {
	u := faultsim.NewUniverse(checkpointCore(t))
	var captured *Checkpoint
	var blob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{
		FaultDrop:       true,
		FillSeed:        5,
		CheckpointEvery: 10,
		Checkpoint: func(cp *Checkpoint) {
			if blob != nil {
				return
			}
			b, err := cp.MarshalBinary()
			if err != nil {
				t.Errorf("MarshalBinary: %v", err)
			}
			blob = b
			// Deep-copy for the comparison (the engine reuses cp's state).
			captured = &Checkpoint{
				NetHash: cp.NetHash, NumFaults: cp.NumFaults, NumInputs: cp.NumInputs,
				Detected: cp.Detected, Untestable: cp.Untestable, Aborted: cp.Aborted,
				Backtracks: cp.Backtracks, FillState: cp.FillState,
				Done:  append([]bool(nil), cp.Done...),
				Cubes: cp.Cubes.Clone(),
			}
			for _, p := range cp.Patterns {
				captured.Patterns = append(captured.Patterns, append([]uint8(nil), p...))
			}
			cancel()
		},
	}
	if _, err := RunAllCtx(ctx, u, opt); err == nil {
		t.Fatalf("cancelled run returned nil error")
	}
	if blob == nil {
		t.Fatalf("no checkpoint captured")
	}
	var got Checkpoint
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if got.NetHash != captured.NetHash || got.NumFaults != captured.NumFaults ||
		got.NumInputs != captured.NumInputs || got.Detected != captured.Detected ||
		got.Untestable != captured.Untestable || got.Aborted != captured.Aborted ||
		got.Backtracks != captured.Backtracks || got.FillState != captured.FillState {
		t.Fatalf("scalar fields differ: got %+v", got)
	}
	if !reflect.DeepEqual(got.Done, captured.Done) {
		t.Fatalf("done marks differ")
	}
	if got.Cubes.Len() != captured.Cubes.Len() {
		t.Fatalf("cube count %d != %d", got.Cubes.Len(), captured.Cubes.Len())
	}
	for i := range captured.Cubes.Cubes {
		if got.Cubes.Cubes[i].String() != captured.Cubes.Cubes[i].String() {
			t.Fatalf("cube %d differs", i)
		}
	}
	if !reflect.DeepEqual(got.Patterns, captured.Patterns) {
		t.Fatalf("patterns differ")
	}
}

// TestCheckpointCorruptRejected: truncations and bit flips must fail
// UnmarshalBinary or Matches, never resume from garbage.
func TestCheckpointCorruptRejected(t *testing.T) {
	u := faultsim.NewUniverse(checkpointCore(t))
	var blob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{
		FaultDrop:       true,
		CheckpointEvery: 10,
		Checkpoint: func(cp *Checkpoint) {
			if blob == nil {
				blob, _ = cp.MarshalBinary()
				cancel()
			}
		},
	}
	if _, err := RunAllCtx(ctx, u, opt); err == nil {
		t.Fatalf("cancelled run returned nil error")
	}
	for cut := 0; cut < len(blob); cut += 7 {
		var cp Checkpoint
		if err := cp.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(blob))
		}
	}
	// A wrong-circuit checkpoint must not Match.
	var cp Checkpoint
	if err := cp.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	cp.NetHash ^= 1
	if cp.Matches(u) {
		t.Fatalf("hash-mismatched checkpoint matched universe")
	}
	cp.NetHash ^= 1
	if !cp.Matches(u) {
		t.Fatalf("restored checkpoint no longer matches")
	}
	other := faultsim.NewUniverse(func() *netlist.Netlist {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 40, Outputs: 12, Gates: 360, MaxFan: 3, Seed: 8})
		if err != nil {
			t.Fatalf("Random: %v", err)
		}
		return nl
	}())
	if cp.Matches(other) {
		t.Fatalf("checkpoint matched a different circuit")
	}
	if _, err := RunAllCtx(context.Background(), other, Options{Resume: &cp}); err == nil {
		t.Fatalf("Resume against mismatched universe succeeded")
	}
}
