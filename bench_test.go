// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 4). One benchmark per experiment; each reports the
// key scalar of its table as a benchmark metric and logs the full markdown
// rendering once.
//
// By default the benchmarks run the reduced CI-scale workloads so the whole
// suite finishes in seconds. Set STATESKIP_SCALE=paper to rerun the actual
// DATE'08 experiment sizes (minutes; see EXPERIMENTS.md for the recorded
// paper-scale outputs, or `go run ./cmd/stateskip -scale=paper all`).
package stateskiplfsr

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/hwcost"
	"repro/internal/lfsr"
	"repro/internal/netlist"
	"repro/internal/prng"
	"repro/internal/stateskip"
)

func benchScale() benchprofile.Scale {
	if os.Getenv("STATESKIP_SCALE") == "paper" {
		return benchprofile.ScalePaper
	}
	return benchprofile.ScaleCI
}

// benchSession is shared across benchmarks so the expensive encodings are
// computed once per scale, exactly like experiments share them in the paper.
var (
	benchSessOnce sync.Once
	benchSess     *experiments.Session
)

func session() *experiments.Session {
	benchSessOnce.Do(func() {
		benchSess = experiments.NewSession(benchScale())
	})
	return benchSess
}

// BenchmarkTable1 regenerates Table 1 (classical vs window-based
// reseeding: TDV and TSL per circuit and window length).
func BenchmarkTable1(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		md = s.Table1Markdown(rows)
		tdv := 0
		for _, r := range rows {
			tdv += r.Cells[len(r.Cells)-1].TDV
		}
		b.ReportMetric(float64(tdv), "TDV-bits-at-max-L")
	}
	b.Log("\n" + md)
}

// BenchmarkTable2 regenerates Table 2 (TSL improvement of State Skip over
// full windows, best (S,k) per circuit and L).
func BenchmarkTable2(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		md = s.Table2Markdown(rows)
		var impr float64
		for _, r := range rows {
			impr += r.Cells[len(r.Cells)-1].Impr
		}
		b.ReportMetric(impr/float64(len(rows))*100, "mean-TSL-impr-%")
	}
	b.Log("\n" + md)
}

// BenchmarkFig4 regenerates both sweeps of Fig. 4 (TSL improvement vs k
// for several S at fixed L, and for several L at fixed S, on s13207).
func BenchmarkFig4(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		bars, curves, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		md = s.Fig4Markdown(bars, curves)
		last := curves[len(curves)-1].Points
		b.ReportMetric(last[len(last)-1].Impr*100, "impr-%-maxL-maxK")
	}
	b.Log("\n" + md)
}

// BenchmarkTable3 regenerates Table 3 (comparison against the published
// test set embedding methods [11] and [22]).
func BenchmarkTable3(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		md = s.Table3Markdown(rows)
		tsl := 0
		for _, r := range rows {
			tsl += r.PropTSL
		}
		b.ReportMetric(float64(tsl), "total-prop-TSL")
	}
	b.Log("\n" + md)
}

// BenchmarkTable4 regenerates Table 4 (test data compression vs the
// proposed embedding: classical L=1 and State-Skip-shortened windows).
func BenchmarkTable4(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		md = s.Table4Markdown(rows)
		tdv := 0
		for _, r := range rows {
			tdv += r.PropTDV
		}
		b.ReportMetric(float64(tdv), "total-prop-TDV")
	}
	b.Log("\n" + md)
}

// BenchmarkEncode measures window-based seed computation end to end on the
// two extreme workloads (s13207 conflict-bound, s38417 rank-bound and
// densest), serial versus the candidate scan fanned out across every CPU.
// The shared-tables cache is reused across iterations, exactly as
// experiments.Session reuses it across a sweep, so the loop measures the
// reduced-basis candidate-scan hot path; the first iteration also pays the
// symbolic table build. Seeds, assignments and check counts are identical
// for any worker count (TestEncodeWorkersBitIdentical) and to the
// pre-reduced-basis engine (TestEncodeGolden).
func BenchmarkEncode(b *testing.B) {
	L := 32
	if benchScale() == benchprofile.ScalePaper {
		L = 50
	}
	for _, name := range []string{"s13207", "s38417"} {
		p, err := benchprofile.ByName(name, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		set := p.Generate()
		cache := encoder.NewTablesCache()
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var enc *encoder.Encoding
				for i := 0; i < b.N; i++ {
					e, _, err := encoder.EncodeAutoCached(p.LFSRSize, p.Width, p.Chains, L, set, workers, cache)
					if err != nil {
						b.Fatal(err)
					}
					enc = e
				}
				b.ReportMetric(float64(len(enc.Seeds)), "seeds")
				b.ReportMetric(float64(enc.ChecksPerformed), "checks")
			})
		}
	}
}

// BenchmarkCoverage measures fault-universe coverage of a fixed random
// core, serial (workers=1) versus chunked across every CPU. Detection
// results are bit-identical for any worker count (asserted by the
// differential tests in internal/faultsim); only the wall clock differs.
// At paper scale the core and pattern count grow to the size of the
// paper's larger ISCAS'89-class circuits.
func BenchmarkCoverage(b *testing.B) {
	cfg := netlist.RandomConfig{Inputs: 96, Outputs: 32, Gates: 4000, MaxFan: 3, Seed: 2008}
	numPatterns := 256
	if benchScale() == benchprofile.ScalePaper {
		cfg.Gates = 20000
		cfg.Inputs = 256
		cfg.Outputs = 128
		numPatterns = 1024
	}
	nl, err := netlist.Random(cfg)
	if err != nil {
		b.Fatal(err)
	}
	u := faultsim.NewUniverse(nl)
	src := prng.New(77)
	patterns := make([][]uint8, numPatterns)
	for i := range patterns {
		p := make([]uint8, cfg.Inputs)
		for j := range p {
			p[j] = src.Bit()
		}
		patterns[i] = p
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				_, c, err := faultsim.CoverageCtx(context.Background(), u, patterns, faultsim.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				cov = c
			}
			b.ReportMetric(cov*100, "coverage-%")
			b.ReportMetric(float64(len(u.Faults)), "faults")
		})
	}
}

// BenchmarkRunAll measures the full ATPG pipeline (event-driven PODEM
// implication + speculative generation + commit-ordered X-fill + 64-wide
// batched fault dropping) end to end: one speculative worker versus one
// per CPU, and the classic SCOAP backtrace versus the FAN/SOCRATES multiple
// backtrace. The shared atpg.Tables are built once per RunAllCtx; per-worker
// Generators are cheap scratch. Within one strategy cubes, patterns and
// counters are bit-identical for any worker count and (for scoap) to the
// kept full-resimulation reference engine (both asserted by atpg's
// differential tests under -race); the strategies differ in backtracks,
// aborts and coverage — the decision-quality metrics reported below. At
// paper scale the core grows to the size of the paper's larger
// ISCAS'89-class circuits.
func BenchmarkRunAll(b *testing.B) {
	// A three-core circuit set per scale: single-circuit deltas between the
	// strategies are dominated by random X-fill fault-drop luck; the set
	// makes the decision-quality comparison meaningful.
	for _, seed := range []uint64{2008, 2009, 2010} {
		cfg := netlist.RandomConfig{Inputs: 400, Outputs: 160, Gates: 800, MaxFan: 3, Seed: seed}
		if benchScale() == benchprofile.ScalePaper {
			cfg = netlist.RandomConfig{Inputs: 800, Outputs: 320, Gates: 2400, MaxFan: 3, Seed: seed}
		}
		nl, err := netlist.Random(cfg)
		if err != nil {
			b.Fatal(err)
		}
		u := faultsim.NewUniverse(nl)
		// Backtrack limit 20 is the production norm for drop-loop ATPG; the
		// default 1000 makes hard faults cost seconds each on circuits this
		// size without changing the picture the benchmark draws.
		for _, strategy := range []atpg.Backtrace{atpg.BacktraceSCOAP, atpg.BacktraceMulti} {
			for _, workers := range []int{1, runtime.NumCPU()} {
				b.Run(fmt.Sprintf("core=%d/strategy=%v/workers=%d", seed, strategy, workers), func(b *testing.B) {
					var res *atpg.Result
					for i := 0; i < b.N; i++ {
						r, err := atpg.RunAllCtx(context.Background(), u, atpg.Options{
							FaultDrop: true, FillSeed: 7, Workers: workers,
							BacktrackLimit: 20, Backtrace: strategy,
						})
						if err != nil {
							b.Fatal(err)
						}
						res = r
					}
					b.ReportMetric(res.Coverage*100, "coverage-%")
					b.ReportMetric(float64(res.Cubes.Len()), "cubes")
					b.ReportMetric(float64(res.Aborted), "aborted")
					b.ReportMetric(float64(res.Backtracks), "backtracks")
					b.ReportMetric(float64(len(u.Faults)), "faults")
				})
			}
		}
	}
}

// BenchmarkHWSkipCircuit regenerates the §4 State-Skip-circuit overhead
// sweep (GE vs k on the s13207 register), including the CSE ablation.
func BenchmarkHWSkipCircuit(b *testing.B) {
	s := session()
	var last float64
	for i := 0; i < b.N; i++ {
		pts, err := s.SkipCircuitSweep([]int{4, 8, 12, 16, 20, 24, 28, 32})
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1].CSEGE
	}
	b.ReportMetric(last, "GE-at-k32")
}

// BenchmarkHWDecompressor regenerates the §4 decompressor cost breakdown
// and the Mode Select (L,S) range.
func BenchmarkHWDecompressor(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rep, err := s.HWOverhead()
		if err != nil {
			b.Fatal(err)
		}
		md = s.HWMarkdown(rep)
		b.ReportMetric(rep.Breakdown.SharedGE(), "shared-GE")
	}
	b.Log("\n" + md)
}

// BenchmarkHWSoC regenerates the §4 five-core SoC synthesis experiment.
func BenchmarkHWSoC(b *testing.B) {
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rep, err := s.SoC()
		if err != nil {
			b.Fatal(err)
		}
		md = s.SoCMarkdown(rep)
		b.ReportMetric(rep.AreaPercent, "SoC-area-%")
	}
	b.Log("\n" + md)
}

// BenchmarkAblationSelection quantifies the useful-segment
// selection choice: the paper's fortuitous-embedding + greedy cover
// against naive assignment-based labelling. The reported metric is the
// TSL saved by the smart selection, in percent.
func BenchmarkAblationSelection(b *testing.B) {
	s := session()
	circuit := "s38584" // the sparsest profile: most fortuitous embeddings
	L := s.Params.Table2Ls[len(s.Params.Table2Ls)-1]
	S, k := s.Params.Fig4CurveS, 12
	var saved float64
	for i := 0; i < b.N; i++ {
		enc, err := s.Encoding(circuit, L)
		if err != nil {
			b.Fatal(err)
		}
		smart, err := s.Reduce(circuit, L, S, k)
		if err != nil {
			b.Fatal(err)
		}
		naiveOpt := stateskip.DefaultOptions(S, k)
		naiveOpt.NaiveSelection = true
		naive, err := stateskip.Reduce(enc, naiveOpt)
		if err != nil {
			b.Fatal(err)
		}
		saved = (1 - float64(smart.TSL())/float64(naive.TSL())) * 100
	}
	b.ReportMetric(saved, "TSL-saved-%-vs-naive")
}

// BenchmarkAblationPruning quantifies the encoder's monotone feasibility
// pruning (see internal/encoder): consistency checks with and without it.
// The result is identical either way (asserted by the encoder tests); only
// the work differs.
func BenchmarkAblationPruning(b *testing.B) {
	p, err := benchprofile.ByName("s13207", benchScale())
	if err != nil {
		b.Fatal(err)
	}
	if benchScale() == benchprofile.ScaleCI {
		p.NumCubes = 40
	}
	set := p.Generate()
	L := 16
	if benchScale() == benchprofile.ScalePaper {
		L = 100
	}
	cfg, err := encoder.StandardConfig(p.LFSRSize, p.Width, p.Chains, L)
	if err != nil {
		b.Fatal(err)
	}
	var pruned, full int64
	for i := 0; i < b.N; i++ {
		encP, err := encoder.Encode(cfg, set)
		if err != nil {
			b.Fatal(err)
		}
		pruned = encP.ChecksPerformed
		cfgNP := cfg
		cfgNP.NoPruning = true
		encF, err := encoder.Encode(cfgNP, set)
		if err != nil {
			b.Fatal(err)
		}
		full = encF.ChecksPerformed
	}
	b.ReportMetric(float64(full)/float64(pruned), "check-reduction-x")
}

// BenchmarkAblationCSE quantifies Paar common-subexpression elimination on
// the skip-circuit XOR network (see internal/hwcost).
func BenchmarkAblationCSE(b *testing.B) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, 24)
	if err != nil {
		b.Fatal(err)
	}
	m := l.SkipMatrix(24)
	var net hwcost.XorNetwork
	for i := 0; i < b.N; i++ {
		net = hwcost.CostLinear(m)
	}
	b.ReportMetric(float64(net.NaiveXORs)/float64(net.CSEXORs), "XOR-reduction-x")
}

// BenchmarkAblationLFSRForm compares the State Skip circuit cost of the
// two feedback structures for the same characteristic polynomial. The
// paper uses one register form throughout; this quantifies how much the
// choice matters for the skip network (it barely does — T^k densifies
// similarly either way).
func BenchmarkAblationLFSRForm(b *testing.B) {
	taps, _ := lfsr.Taps(24)
	fib, err := lfsr.NewFromTaps(lfsr.Fibonacci, 24, taps)
	if err != nil {
		b.Fatal(err)
	}
	gal, err := lfsr.NewFromTaps(lfsr.Galois, 24, taps)
	if err != nil {
		b.Fatal(err)
	}
	var fibGE, galGE float64
	for i := 0; i < b.N; i++ {
		fibGE = hwcost.CostLinear(fib.SkipMatrix(12)).GE()
		galGE = hwcost.CostLinear(gal.SkipMatrix(12)).GE()
	}
	b.ReportMetric(fibGE, "fibonacci-GE-k12")
	b.ReportMetric(galGE, "galois-GE-k12")
}
