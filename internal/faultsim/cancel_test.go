package faultsim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prng"
)

// TestCoverageCtxCanceled asserts a dead context stops the sweep with a
// typed error, and that a live but never-cancelled context yields exactly
// the background-context result.
func TestCoverageCtxCanceled(t *testing.T) {
	core, err := netlist.Random(netlist.RandomConfig{
		Inputs: 40, Outputs: 24, Gates: 600, MaxFan: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(core)
	rnd := prng.New(11)
	patterns := make([][]uint8, 512)
	for i := range patterns {
		p := make([]uint8, len(core.Inputs))
		for b := range p {
			p[b] = rnd.Bit()
		}
		patterns[i] = p
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CoverageCtx(canceled, u, patterns, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	detA, covA, err := CoverageCtx(context.Background(), u, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	detB, covB, err := CoverageCtx(live, u, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if covA != covB || len(detA) != len(detB) {
		t.Fatalf("coverage differs: %v vs %v", covA, covB)
	}
	for i := range detA {
		if detA[i] != detB[i] {
			t.Fatalf("detected[%d] differs", i)
		}
	}
}
