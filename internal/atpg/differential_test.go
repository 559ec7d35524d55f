package atpg

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// diffCircuit is one differential-test circuit: c17 or a seeded random
// netlist with size/shape varied by the seed.
func diffCircuit(t testing.TB, seed uint64) *netlist.Netlist {
	t.Helper()
	if seed == 0 {
		return readC17(t)
	}
	cfg := netlist.RandomConfig{
		Inputs:  5 + int(seed%9),
		Outputs: 2 + int(seed%5),
		Gates:   12 + int(seed%36),
		MaxFan:  2 + int(seed%3),
		Seed:    seed,
	}
	nl, err := netlist.Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// compareEngineState asserts the event-driven generator's full 3-valued
// good/bad state and its incrementally maintained D-frontier equal the
// reference full re-simulation from the same PI assignment.
func compareEngineState(t *testing.T, label string, g *Generator, r *refGenerator, f faultsim.Fault) {
	t.Helper()
	r.resimulateFrom(g.good, f)
	for gi := range g.good {
		if g.good[gi] != r.good[gi] || g.bad[gi] != r.bad[gi] {
			t.Fatalf("%s: gate %d (%s): event state good=%d bad=%d, reference good=%d bad=%d",
				label, gi, g.t.net.Gates[gi].Name, g.good[gi], g.bad[gi], r.good[gi], r.bad[gi])
		}
	}
	got := g.dFrontier()
	want := r.dFrontier(f) // cone must be current: computeCone ran in the caller
	if len(got) != len(want) {
		t.Fatalf("%s: D-frontier %v, reference %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: D-frontier %v, reference %v", label, got, want)
		}
	}
}

// TestImplyDifferential is the central differential test of this package:
// for c17 plus 200 seeded random netlists, every implication the
// event-driven engine performs during real PODEM runs (initial fault
// injection, every decision, every backtrack re-assignment) must leave the
// exact gate-value state and D-frontier a full re-simulation produces, and
// every Generate outcome (cube, Status) must be identical to the kept
// reference implementation. CI runs it under -race.
func TestImplyDifferential(t *testing.T) {
	const numRandom = 200
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
		g := tables.NewGenerator()
		ref := newRefGenerator(tables)
		// A modest limit keeps hard faults cheap while still exercising the
		// aborted path; it applies identically to both engines.
		g.BacktrackLimit = 30
		ref.BacktrackLimit = 30
		checker := newRefGenerator(tables)
		for _, f := range u.Faults {
			f := f
			label := fmt.Sprintf("%s fault %v", name, f)
			checker.computeCone(f)
			g.implyHook = func() { compareEngineState(t, label, g, checker, f) }
			gc, gs := g.Generate(f)
			g.implyHook = nil
			rc, rs := ref.Generate(f)
			if gs != rs {
				t.Fatalf("%s: event status %v, reference %v", label, gs, rs)
			}
			if gs == StatusDetected && gc.String() != rc.String() {
				t.Fatalf("%s: event cube %s, reference %s", label, gc, rc)
			}
		}
	}
}

// TestGenerateReusedAcrossFaults guards the scratch reuse: one generator
// run over the whole fault list twice must produce identical results —
// no state may leak from one Generate into the next.
func TestGenerateReusedAcrossFaults(t *testing.T) {
	nl := diffCircuit(t, 17)
	u := faultsim.NewUniverse(nl)
	g, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		cube   string
		status Status
	}
	var first []outcome
	for round := 0; round < 2; round++ {
		for fi, f := range u.Faults {
			c, s := g.Generate(f)
			o := outcome{cube: c.String(), status: s}
			if round == 0 {
				first = append(first, o)
				continue
			}
			if o != first[fi] {
				t.Fatalf("fault %v: round 2 gave (%s, %v), round 1 (%s, %v)",
					f, o.cube, o.status, first[fi].cube, first[fi].status)
			}
		}
	}
}

// TestTablesBuiltOncePerRunAll asserts the Generator split pays the shared
// tables exactly once per RunAll regardless of the worker count, and not
// at all when Options.Tables supplies prebuilt ones.
func TestTablesBuiltOncePerRunAll(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 20, Outputs: 8, Gates: 120, MaxFan: 3, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	for _, workers := range []int{1, 4, 8} {
		before := tablesBuilt.Load()
		if _, err := RunAllCtx(context.Background(), u, Options{FaultDrop: true, FillSeed: 3, Workers: workers, BacktrackLimit: 40}); err != nil {
			t.Fatal(err)
		}
		if got := tablesBuilt.Load() - before; got != 1 {
			t.Errorf("workers=%d: RunAll built tables %d times, want exactly 1", workers, got)
		}
	}
	prebuilt, err := NewTables(nl)
	if err != nil {
		t.Fatal(err)
	}
	before := tablesBuilt.Load()
	if _, err := RunAllCtx(context.Background(), u, Options{FaultDrop: true, FillSeed: 3, Workers: 4, Tables: prebuilt}); err != nil {
		t.Fatal(err)
	}
	if got := tablesBuilt.Load() - before; got != 0 {
		t.Errorf("RunAll with prebuilt Options.Tables built tables %d times, want 0", got)
	}
	// Tables for the wrong netlist must be rejected, not silently used.
	other := readC17(t)
	wrong, err := NewTables(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllCtx(context.Background(), u, Options{Tables: wrong}); err == nil {
		t.Error("RunAll accepted Tables built over a different netlist")
	}
	// Tables gone stale after a same-netlist mutation must be rejected
	// too (the pointer still matches, but the sizes no longer do).
	stale, err := NewTables(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.AddGate("pr3_extra", netlist.Buf, "22"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllCtx(context.Background(), faultsim.NewUniverse(other), Options{Tables: stale}); err == nil {
		t.Error("RunAll accepted stale Tables after a netlist mutation")
	}
	// MarkOutput changes neither the pointer nor the gate count, but makes
	// isOutput stale — detection would silently miss the new output.
	third := readC17(t)
	stale2, err := NewTables(third)
	if err != nil {
		t.Fatal(err)
	}
	if err := third.MarkOutput("16"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllCtx(context.Background(), faultsim.NewUniverse(third), Options{Tables: stale2}); err == nil {
		t.Error("RunAll accepted stale Tables after MarkOutput")
	}
}
