// ip_core_flow demonstrates the complete IP-core test flow the paper
// motivates, end to end and with no stubbed step:
//
//  1. a gate-level core is generated (standing in for the vendor's RTL);
//
//  2. a PODEM ATPG produces the pre-computed test cubes the vendor would
//     ship (with don't-cares — the asset reseeding exploits);
//
//  3. an independent fault simulator confirms the cubes' fault coverage;
//
//  4. the system integrator, who sees only the cubes, compresses them into
//     LFSR seeds with window-based reseeding;
//
//  5. a State Skip LFSR shortens the test sequence;
//
//  6. the Fig. 3 decompressor is simulated clock by clock, and the applied
//     vectors are fault-simulated to show the compressed, shortened test
//     still reaches the ATPG's coverage.
//
//     go run ./examples/ip_core_flow [-workers N] [-backtrace scoap|multi]
//
// -workers bounds the goroutines of the ATPG pipeline and the fault
// simulator (0 = all CPUs); cubes, patterns and coverage are identical
// for any value. -backtrace selects the PODEM decision heuristic: the
// classic single-objective SCOAP backtrace, or the FAN/SOCRATES-style
// multiple backtrace (fewer backtracks, equally valid cubes).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	stateskiplfsr "repro"
	"repro/internal/atpg"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

func main() {
	workers := flag.Int("workers", 0, "worker goroutines for ATPG and fault simulation (0 = all CPUs)")
	backtrace := flag.String("backtrace", "scoap", "PODEM backtrace strategy: scoap or multi")
	flag.Parse()
	strategy, ok := atpg.ParseBacktrace(*backtrace)
	if !ok {
		log.Fatalf("unknown -backtrace %q (want scoap or multi)", *backtrace)
	}
	ctx := context.Background()

	// 1. The "vendor's" core: an 80-input scan circuit.
	core, err := netlist.Random(netlist.RandomConfig{
		Inputs: 80, Outputs: 48, Gates: 260, MaxFan: 3, Seed: 2008,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, _ := core.Summary()
	fmt.Printf("core: %d inputs, %d outputs, %d gates, %d levels\n",
		st.Inputs, st.Outputs, st.Gates, st.Levels)

	// 2. ATPG: collapsed stuck-at faults, PODEM with fault dropping.
	universe := faultsim.NewUniverse(core)
	res, err := atpg.RunAllCtx(ctx, universe, atpg.Options{FaultDrop: true, FillSeed: 1, Workers: *workers, Backtrace: strategy})
	if err != nil {
		log.Fatal(err)
	}
	sum := res.Cubes.Summary()
	fmt.Printf("ATPG (%v backtrace, %d backtracks): %d faults (%d proven redundant, %d aborted), %d cubes,\n",
		strategy, res.Backtracks, len(universe.Faults), res.Untestable, res.Aborted, res.Cubes.Len())
	fmt.Printf("      coverage of testable faults %.1f%%, mean %.1f specified bits (s_max %d of %d)\n",
		res.Coverage*100, sum.MeanSpecified, sum.MaxSpecified, sum.Width)

	// 3. Independent verification of the shipped patterns.
	_, cov, err := faultsim.CoverageCtx(ctx, universe, res.Patterns, faultsim.Options{Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault simulation: shipped set covers %.1f%% of all faults (random circuits are redundancy-heavy)\n", cov*100)

	// 4. The integrator's side: compress the cubes. The LFSR must give
	// s_max some head room (Koenemann's margin). The shared-tables cache
	// keeps the symbolic simulation of each phase-shifter variant tried at
	// this configuration, so re-encoding the same geometry (e.g. after
	// regenerating cubes, or sweeping the fill seed) pays for it once.
	n := sum.MaxSpecified + 12
	const chains, L = 8, 24
	encTables := stateskiplfsr.NewEncoderTablesCache()
	enc, variant, err := stateskiplfsr.EncodeAuto(ctx, n, sum.Width, chains, L, res.Cubes, encTables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reseeding: n=%d, %d seeds (variant %d), TDV %d bits vs %d raw bits (%.1fx)\n",
		n, len(enc.Seeds), variant, enc.TDV(), res.Cubes.Len()*sum.Width,
		float64(res.Cubes.Len()*sum.Width)/float64(enc.TDV()))
	fmt.Printf("full-window test sequence: %d vectors (%d consistency checks, tables built in %.1fms)\n",
		enc.TSL(), enc.ChecksPerformed, enc.TableBuildTime.Seconds()*1000)

	// 5. State Skip reduction.
	red, err := stateskiplfsr.Reduce(enc, stateskiplfsr.ReduceOptions(4, 12))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state skip (S=4, k=12): %d vectors, %.0f%% shorter\n",
		red.TSL(), red.Improvement()*100)

	// 6. Decompressor simulation + fault simulation of what the CUT saw.
	sched := stateskiplfsr.NewSchedule(red)
	run, err := sched.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.VerifyCoverage(run); err != nil {
		log.Fatal(err)
	}
	applied := make([][]uint8, len(run.Vectors))
	for i, v := range run.Vectors {
		p := make([]uint8, sum.Width)
		for j := 0; j < sum.Width; j++ {
			p[j] = v.Bit(j)
		}
		applied[i] = p
	}
	_, finalCov, err := faultsim.CoverageCtx(ctx, universe, applied, faultsim.Options{Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decompressed+shortened sequence: %d vectors, fault coverage %.1f%%\n",
		len(applied), finalCov*100)
	if finalCov < cov {
		fmt.Println("note: coverage below the shipped set — deterministic cubes are all applied; " +
			"the difference is fortuitous detection by random fill, which the shorter sequence trades away")
	}
}
