// Quickstart: compress a small pre-computed test set with window-based
// LFSR reseeding, then shorten the test sequence with a State Skip LFSR.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	stateskiplfsr "repro"
)

// A toy IP core: 48 scan cells, a vendor-supplied test set of ten cubes.
const testSet = `width 48
1xx0xxxxxxxx1xxxxxxxxxxxxxxxxxx0xxxxxxxxxxxxxxxx
x1xxxxxx0xxxxxxxxx1xxxxxxxxxxxxxxxxxxx1xxxxxxxxx
xx11xxxxxxxxxxxx0xxxxxxxx1xxxxxxxxxxxxxxxxxxxx0x
xxxxx0xxxx1xxxxxxxxxxx0xxxxxxxxxxx1xxxxxxxxxxxxx
1xxxxxxxxxxxxxx1xxxxxxxxxxx0xxxxxxxxxx0xxxxxxxxx
xxxxxxx1xxxxx0xxxxxxxxxxxxxxx1xxxxxxxxxxxx1xxxxx
xxx1xxxxxxxxxxxxxxxx1xxxxxxxxxxx0xxxxxxxxxxxx1xx
xxxxxxxxxx0xxxxxxxxxxxxx1xxxxxxxxxxxxxxx0xxxxxx1
x0xxxxxxxxxxxxxx1xxxxxxxxxxxxxxxxxxxx1xxxxxxx0xx
xxxxxx1xxxxxxxxxxxxxxxxxxxx1xxxxxxx0xxxxxxxxxxxx
`

func main() {
	set, err := stateskiplfsr.ReadCubes(strings.NewReader(testSet))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test set: %d cubes, width %d, s_max %d\n",
		set.Len(), set.Width, set.MaxSpecified())

	// Encode into seeds of a 16-bit LFSR feeding 4 scan chains, each seed
	// expanding into a window of L=12 vectors.
	const n, chains, L = 16, 4, 12
	enc, variant, err := stateskiplfsr.EncodeAuto(context.Background(), n, set.Width, chains, L, set, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded: %d seeds (phase-shifter variant %d)\n", len(enc.Seeds), variant)
	fmt.Printf("test data volume: %d bits; full-window sequence: %d vectors\n", enc.TDV(), enc.TSL())

	// Shorten the sequence with a State Skip LFSR: segments of S=3
	// vectors, useless segments traversed k=8 states per clock.
	red, err := stateskiplfsr.Reduce(enc, stateskiplfsr.ReduceOptions(3, 8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state skip: %d vectors (%.0f%% shorter), %d useful segments\n",
		red.TSL(), red.Improvement()*100, red.TotalUseful())

	// Program the Fig. 3 decompression architecture and prove every cube
	// is still applied.
	sched := stateskiplfsr.NewSchedule(red)
	res, err := sched.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.VerifyCoverage(res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decompressor run: %d clocks (%d in skip mode), all %d cubes applied ✓\n",
		res.Clocks, res.SkipClocks, set.Len())
}
