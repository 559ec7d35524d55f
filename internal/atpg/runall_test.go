package atpg

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/prng"
)

// runAllPerPattern is the pre-batching reference: PODEM one fault at a
// time, with a full DetectAllCtx sweep after every single pattern (one
// simulator lane used per sweep). It is kept as the oracle the batched,
// pipelined RunAllCtx must match bit for bit — same cubes, same patterns,
// same counters.
func runAllPerPattern(u *faultsim.Universe, opt Options) (*Result, error) {
	g, err := New(u.Net)
	if err != nil {
		return nil, err
	}
	if opt.BacktrackLimit > 0 {
		g.BacktrackLimit = opt.BacktrackLimit
	}
	g.Strategy = opt.Backtrace
	sims, err := faultsim.NewSimulatorPoolLanes(u, 1, 1)
	if err != nil {
		return nil, err
	}
	src := prng.New(opt.FillSeed)
	res := &Result{Cubes: cube.NewSet(len(u.Net.Inputs))}
	done := make([]bool, len(u.Faults))
	for fi, f := range u.Faults {
		if done[fi] {
			continue
		}
		c, status := g.Generate(f)
		res.Backtracks += g.Backtracks
		switch status {
		case StatusUntestable:
			res.Untestable++
			done[fi] = true
			continue
		case StatusAborted:
			res.Aborted++
			done[fi] = true
			continue
		}
		res.Detected++
		done[fi] = true
		if err := res.Cubes.Add(c); err != nil {
			return nil, err
		}
		if opt.FaultDrop {
			pat := make([]uint8, c.Width())
			for i := 0; i < c.Width(); i++ {
				switch c.Get(i) {
				case -1:
					pat[i] = src.Bit()
				default:
					pat[i] = uint8(c.Get(i))
				}
			}
			res.Patterns = append(res.Patterns, pat)
			if err := sims[0].LoadPatterns([][]uint8{pat}); err != nil {
				return nil, err
			}
			n, err := faultsim.DetectAllCtx(context.Background(), sims, u.Faults, done)
			if err != nil {
				return nil, err
			}
			res.Detected += n
		}
	}
	if den := len(u.Faults) - res.Untestable; den > 0 {
		res.Coverage = float64(res.Detected) / float64(den)
	}
	return res, nil
}

func diffResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Detected != want.Detected || got.Untestable != want.Untestable ||
		got.Aborted != want.Aborted || got.Coverage != want.Coverage ||
		got.Backtracks != want.Backtracks {
		t.Fatalf("%s: counters (det %d, unt %d, abt %d, bt %d, cov %v) != reference (det %d, unt %d, abt %d, bt %d, cov %v)",
			label, got.Detected, got.Untestable, got.Aborted, got.Backtracks, got.Coverage,
			want.Detected, want.Untestable, want.Aborted, want.Backtracks, want.Coverage)
	}
	if got.Cubes.Len() != want.Cubes.Len() {
		t.Fatalf("%s: %d cubes, reference has %d", label, got.Cubes.Len(), want.Cubes.Len())
	}
	for i := range want.Cubes.Cubes {
		if g, w := got.Cubes.Cubes[i].String(), want.Cubes.Cubes[i].String(); g != w {
			t.Fatalf("%s: cube %d\n got %s\nwant %s", label, i, g, w)
		}
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: %d patterns, reference has %d", label, len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		for j := range want.Patterns[i] {
			if got.Patterns[i][j] != want.Patterns[i][j] {
				t.Fatalf("%s: pattern %d bit %d = %d, reference says %d",
					label, i, j, got.Patterns[i][j], want.Patterns[i][j])
			}
		}
	}
}

// runAllCircuits builds the differential-test circuit set: c17 plus
// randomized netlists large enough for multi-batch dropping.
func runAllCircuits(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	circuits := map[string]*netlist.Netlist{"c17": readC17(t)}
	for _, seed := range []uint64{5, 17} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 28, Outputs: 10, Gates: 180, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits[fmt.Sprintf("random-%d", seed)] = nl
	}
	return circuits
}

// TestRunAllWorkersBitIdentical asserts the speculative pipeline's central
// property for both backtrace strategies: cubes, patterns and counters are
// bit-identical to the serial per-pattern reference for any worker count.
// (The two strategies legitimately differ from each other; bit-identity
// holds within a strategy.) Run it with -race to check the commit queue
// (CI does).
func TestRunAllWorkersBitIdentical(t *testing.T) {
	for name, nl := range runAllCircuits(t) {
		for _, strategy := range []Backtrace{BacktraceSCOAP, BacktraceMulti} {
			t.Run(fmt.Sprintf("%s/%v", name, strategy), func(t *testing.T) {
				u := faultsim.NewUniverse(nl)
				// The low backtrack limit keeps hard faults cheap (and
				// exercises the aborted-commit path); it applies identically
				// to the reference and every worker count.
				opt := Options{FaultDrop: true, FillSeed: 99, BacktrackLimit: 40, Backtrace: strategy}
				want, err := runAllPerPattern(u, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 8, 0} {
					o := opt
					o.Workers = workers
					got, err := RunAllCtx(context.Background(), u, o)
					if err != nil {
						t.Fatal(err)
					}
					diffResults(t, fmt.Sprintf("workers=%d", workers), got, want)
				}
			})
		}
	}
}

// TestRunAllWorkersNoFaultDrop covers the pipeline without dropping: every
// fault is PODEM'd exactly once regardless of worker count.
func TestRunAllWorkersNoFaultDrop(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 20, Outputs: 8, Gates: 120, MaxFan: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	want, err := runAllPerPattern(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 0} {
		got, err := RunAllCtx(context.Background(), u, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// BenchmarkRunAllSerialBatching isolates the drop-loop batching fix with
// the worker pool pinned to one: the batched path flushes a full-width
// DetectAll sweep once per 64 committed patterns (plus one event-driven
// check per PODEM candidate), where the per-pattern reference sweeps the
// whole remaining universe after every pattern with 63 lanes idle.
func BenchmarkRunAllSerialBatching(b *testing.B) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 400, Outputs: 160, Gates: 800, MaxFan: 3, Seed: 2008})
	if err != nil {
		b.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	// The low backtrack limit is the production norm for drop-loop ATPG:
	// hard faults cost O(limit × gates²) in PODEM and would swamp the
	// simulation time this benchmark isolates.
	opt := Options{FaultDrop: true, FillSeed: 7, Workers: 1, BacktrackLimit: 20}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunAllCtx(context.Background(), u, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-pattern", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runAllPerPattern(u, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
