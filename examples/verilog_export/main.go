// verilog_export emits the synthesisable RTL of a complete State Skip
// decompressor front end for one core: the two-mode LFSR, the phase
// shifter, and the core's Mode Select unit derived from an actual encoding.
//
//	go run ./examples/verilog_export > decompressor.v
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	stateskiplfsr "repro"
	"repro/internal/benchprofile"
	"repro/internal/verilog"
)

func main() {
	const L, S, k = 16, 4, 8
	p, err := benchprofile.ByName("s13207", benchprofile.ScaleCI)
	if err != nil {
		log.Fatal(err)
	}
	set := p.Generate()
	enc, _, err := stateskiplfsr.EncodeAuto(context.Background(), p.LFSRSize, p.Width, p.Chains, L, set, nil)
	if err != nil {
		log.Fatal(err)
	}
	red, err := stateskiplfsr.Reduce(enc, stateskiplfsr.ReduceOptions(S, k))
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	fmt.Fprintf(w, "// State Skip decompressor for %s: n=%d, %d chains, L=%d, S=%d, k=%d\n",
		p.Name, p.LFSRSize, p.Chains, L, S, k)
	fmt.Fprintf(w, "// %d seeds, TSL %d -> %d vectors (%.0f%% shorter)\n\n",
		len(enc.Seeds), enc.TSL(), red.TSL(), red.Improvement()*100)
	fmt.Fprintln(w, verilog.StateSkipLFSR(enc.Cfg.LFSR, k))
	fmt.Fprintln(w, verilog.PhaseShifter(enc.Cfg.PS))
	fmt.Fprintln(w, verilog.ModeSelect(red, p.Name))
	fmt.Fprintln(w, verilog.DecompressorTop(red, p.Name))
}
