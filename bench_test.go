// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 4). One benchmark per experiment; each reports the
// key scalar of its table as a benchmark metric and logs the full markdown
// rendering once.
//
// By default the benchmarks run the reduced CI-scale workloads so the whole
// suite finishes in seconds. Set STATESKIP_SCALE=paper to rerun the actual
// DATE'08 experiment sizes (minutes). `go run ./cmd/stateskip -scale paper
// all` prints every paper-scale table; table1, table2, table3, table4,
// fig4, hw or soc in place of all prints one.
package stateskiplfsr

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/decompressor"
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1(ctx)
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2(ctx)
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		bars, curves, err := s.Fig4(ctx)
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3(ctx)
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4(ctx)
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
// densest), plus s38417 at L = 1 (classical reseeding), thousands of tiers
// of a few checks each. The shared-tables cache is reused across
// iterations, exactly as experiments.Session reuses it across a sweep, so
// the loop measures the reduced-basis candidate-scan hot path; the first
// iteration also pays the symbolic table build. Seeds, assignments and
// check counts are identical to the pre-reduced-basis engine
// (TestEncodeGolden).
func BenchmarkEncode(b *testing.B) {
	ctx := context.Background()
	L := 32
	if benchScale() == benchprofile.ScalePaper {
		L = 50
	}
	cases := []struct {
		circuit string
		L       int
	}{{"s13207", L}, {"s38417", L}, {"s38417", 1}}
	for _, c := range cases {
		p, err := benchprofile.ByName(c.circuit, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		set := p.Generate()
		cache := encoder.NewTablesCache()
		b.Run(fmt.Sprintf("%s/L=%d", c.circuit, c.L), func(b *testing.B) {
			b.ReportAllocs()
			var enc *encoder.Encoding
			for i := 0; i < b.N; i++ {
				e, _, err := encoder.EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, c.L, set, 0, cache)
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

// BenchmarkCompressPhases times the phases of the compression chain on
// the bench module's compress-paper cases: the encodes of phase-shifter
// variants that turn out unencodable (each with its own phase shifter and
// tables, in EncodeAutoCtx's order), the accepted variant's phase shifter
// and encode, the embedding index, the reduction (S = min(10, L), k = 10)
// and the decompressor run. Beside the phase times it reports two exact
// work counts per case: checks, the accepted encode's ChecksPerformed, and
// embeddings, the total of the index's PerCube hits. Set
// STATESKIP_SCALE=paper for the workload's sizes; at CI scale the same
// circuits run at small L.
func BenchmarkCompressPhases(b *testing.B) {
	ctx := context.Background()
	cases := []struct {
		circuit string
		L       int
	}{{"s13207", 200}, {"s38417", 1}, {"s9234", 20}}
	if benchScale() == benchprofile.ScaleCI {
		cases[0].L, cases[1].L, cases[2].L = 16, 8, 8
	}
	for _, c := range cases {
		p, err := benchprofile.ByName(c.circuit, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		set := p.Generate()
		b.Run(fmt.Sprintf("%s/L=%d", c.circuit, c.L), func(b *testing.B) {
			b.ReportAllocs()
			var failed, accepted, index, reduce, run time.Duration
			var checks int64
			var embeddings int
			for i := 0; i < b.N; i++ {
				var enc *encoder.Encoding
				for v := uint64(0); enc == nil; v++ {
					if v == 16 {
						b.Fatal("no phase-shifter variant encodes")
					}
					t0 := time.Now()
					cfg, err := encoder.StandardConfigVariant(p.LFSRSize, p.Width, p.Chains, c.L, v)
					if err != nil {
						b.Fatal(err)
					}
					if enc, err = encoder.EncodeCtx(ctx, cfg, set); err != nil {
						failed += time.Since(t0)
					} else {
						accepted += time.Since(t0)
					}
				}
				t0 := time.Now()
				idx := stateskip.ScanEmbeddingsWorkers(enc, 0)
				t1 := time.Now()
				checks, embeddings = enc.ChecksPerformed, 0
				for _, refs := range idx.PerCube {
					embeddings += len(refs)
				}
				red, err := stateskip.ReduceWithIndex(enc, idx, stateskip.DefaultOptions(min(10, c.L), 10))
				if err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if _, err := decompressor.NewSchedule(red).Run(); err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				index += t1.Sub(t0)
				reduce += t2.Sub(t1)
				run += t3.Sub(t2)
			}
			perOp := float64(b.N) * float64(time.Millisecond)
			b.ReportMetric(float64(failed)/perOp, "failed-ms")
			b.ReportMetric(float64(accepted)/perOp, "encode-ms")
			b.ReportMetric(float64(index)/perOp, "index-ms")
			b.ReportMetric(float64(reduce)/perOp, "reduce-ms")
			b.ReportMetric(float64(run)/perOp, "run-ms")
			b.ReportMetric(float64(checks), "checks")
			b.ReportMetric(float64(embeddings), "embeddings")
		})
	}
}

// BenchmarkCoverage measures fault-universe coverage of a fixed random
// core, serial (workers=1) versus chunked across every CPU, at the sweep
// width CoverageCtx chooses itself (Options.LaneWords left 0). Detection
// results are bit-identical for any worker count and width (asserted by
// the differential tests in internal/faultsim); only the wall clock differs.
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
	ctx := context.Background()
	s := session()
	var last float64
	for i := 0; i < b.N; i++ {
		pts, err := s.SkipCircuitSweep(ctx, []int{4, 8, 12, 16, 20, 24, 28, 32})
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rep, err := s.HWOverhead(ctx)
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
	ctx := context.Background()
	s := session()
	var md string
	for i := 0; i < b.N; i++ {
		rep, err := s.SoC(ctx)
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
	ctx := context.Background()
	s := session()
	circuit := "s38584" // the sparsest profile: most fortuitous embeddings
	L := s.Params.Table2Ls[len(s.Params.Table2Ls)-1]
	S, k := s.Params.Fig4CurveS, 12
	var saved float64
	for i := 0; i < b.N; i++ {
		enc, err := s.EncodingCtx(ctx, circuit, L)
		if err != nil {
			b.Fatal(err)
		}
		smart, err := s.Reduce(ctx, circuit, L, S, k)
		if err != nil {
			b.Fatal(err)
		}
		naiveOpt := stateskip.DefaultOptions(S, k)
		naiveOpt.NaiveSelection = true
		naive, err := stateskip.ReduceWithIndex(enc, nil, naiveOpt)
		if err != nil {
			b.Fatal(err)
		}
		saved = (1 - float64(smart.TSL())/float64(naive.TSL())) * 100
	}
	b.ReportMetric(saved, "TSL-saved-%-vs-naive")
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
