package encoder

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// formConfig is StandardConfigVariant with a choice of register form. A
// register of at most 8 cells has too few states to keep its outputs'
// sequences apart over a window, and the encoder does not need them
// apart: there, chain ch XORs cells ch and ch+1 (mod n).
func formConfig(t testing.TB, form lfsr.Form, n, width, chains, L int, variant uint64) Config {
	t.Helper()
	l, err := lfsr.NewStandard(form, n)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := scan.New(width, chains)
	if err != nil {
		t.Fatal(err)
	}
	var ps *phaseshifter.PhaseShifter
	if n <= 8 {
		taps := make([][]int, chains)
		for ch := range taps {
			taps[ch] = []int{ch % n, (ch + 1) % n}
		}
		ps, err = phaseshifter.New(n, taps)
	} else {
		ps, err = phaseshifter.NewSeparatedVariant(l, chains, L*geo.Length, variant)
	}
	if err != nil {
		t.Fatal(err)
	}
	return Config{LFSR: l, PS: ps, Geo: geo, WindowLen: L, FillSeed: standardFillSeed}
}

// randomCubes draws count cubes for cfg's scan, each specifying between
// minSpec and maxSpec distinct random cells. Their values come from the
// window of one of four random seeds, at a random window position, so
// cubes drawn from one seed can share it and drive its basis to full
// rank even at L = 1.
func randomCubes(src *prng.Source, cfg Config, count, minSpec, maxSpec int) *cube.Set {
	width := cfg.Geo.Width
	var windows [4][]gf2.Vec
	for i := range windows {
		seed := gf2.NewVec(cfg.LFSR.Size())
		for b := 0; b < seed.Len(); b++ {
			seed.SetBit(b, src.Bit())
		}
		windows[i] = GenerateWindow(cfg.LFSR, cfg.PS, cfg.Geo, seed, cfg.WindowLen)
	}
	set := cube.NewSet(width)
	for i := 0; i < count; i++ {
		c := cube.New(width)
		vec := windows[src.Intn(len(windows))][src.Intn(cfg.WindowLen)]
		spec := minSpec + src.Intn(maxSpec-minSpec+1)
		for _, pos := range src.Perm(width)[:spec] {
			c.Set(pos, vec.Bit(pos))
		}
		set.Add(c) //nolint:errcheck // widths match
	}
	return set
}

// scanPaths counts the scan paths one encode's tiers took: window words
// decided bit-sliced below full rank and at it, pairs checked on projected
// rows below full rank and at it, and the words an L = 1 tier decided
// bit-sliced because the basis had more than gf2.ProjectedFree free
// variables.
type scanPaths struct {
	slicedFree, slicedFull, projFree, projFull, wide int
}

// add accumulates another encode's paths.
func (p *scanPaths) add(q scanPaths) {
	p.slicedFree += q.slicedFree
	p.slicedFull += q.slicedFull
	p.projFree += q.projFree
	p.projFull += q.projFull
	p.wide += q.wide
}

// encodeScan encodes set under cfg and returns the result, the paths the
// encode took and its error. A tier off the path its window length and
// free variables choose fails t: an L > 1 tier that checks on projected
// rows, and an L = 1 tier that slices with at most gf2.ProjectedFree free
// variables.
func encodeScan(t testing.TB, cfg Config, set *cube.Set) (enc *Encoding, paths scanPaths, err error) {
	t.Helper()
	defer func() { scanTierHook = nil }()
	scanTierHook = func(ts tierScan) {
		switch {
		case ts.projected && cfg.WindowLen > 1:
			t.Errorf("L = %d tier at %d free variables checked %d pairs on projected rows", cfg.WindowLen, ts.free, ts.projPairs)
		case ts.projected && ts.free > 0:
			paths.projFree += ts.projPairs
		case ts.projected:
			paths.projFull += ts.projPairs
		case cfg.WindowLen > 1 && ts.free > 0:
			paths.slicedFree += ts.slicedWords
		case cfg.WindowLen > 1:
			paths.slicedFull += ts.slicedWords
		case ts.free > gf2.ProjectedFree:
			paths.wide += ts.slicedWords
		default:
			t.Errorf("L = 1 tier at %d free variables decided %d words bit-sliced", ts.free, ts.slicedWords)
		}
	}
	enc, err = EncodeCtx(context.Background(), cfg, set)
	return enc, paths, err
}

// slicedState returns an encode state over cfg's expression table with a
// fresh basis, ready for the bit-sliced path's plane blocks.
func slicedState(t *testing.T, cfg Config) *encodeState {
	t.Helper()
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	n, L := cfg.LFSR.Size(), cfg.WindowLen
	return &encodeState{
		table: table, n: n, L: L, feasWords: (L + 63) / 64, epoch: 1,
		slots: table.Rows().Count() / L, solver: gf2.NewSolver(n),
	}
}

// TestPlanesMatchGeneration ties the bit-sliced path's plane blocks to the
// hardware and to the algebra. On a determined seed (no free variable) the
// constant plane of every output slot must hold, bit by bit, what the
// concrete window generator shifts into that slot's scan cell at each
// window position, as TestTableMatchesGeneration ties the symbolic table.
// Below full rank, bit b of plane i must be the slot's expression row at
// that position dotted with null-space generator i, and the constant plane
// the row dotted with the zero-fill solution; bits past the window are
// clear. Registers of one and two words, both register forms, windows of
// one, exactly one, just over one and several plane words.
func TestPlanesMatchGeneration(t *testing.T) {
	src := prng.New(2024)
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		for _, n := range []int{24, 56, 85} {
			for _, L := range []int{1, 64, 65, 200} {
				cfg := formConfig(t, form, n, 90, 4, L, 0)
				st := slicedState(t, cfg)
				W := st.feasWords
				window := make([]gf2.Vec, L)
				for trial, free := range []int{0, 0, 1, 7, n / 2} {
					seed := gf2.NewVec(n)
					for i := 0; i < n; i++ {
						seed.SetBit(i, src.Bit())
					}
					st.solver.Reset()
					for st.solver.FreeVars() > free {
						coeffs := gf2.NewVec(n)
						for i := 0; i < n; i++ {
							coeffs.SetBit(i, src.Bit())
						}
						st.solver.Add(gf2.Equation{Coeffs: coeffs, RHS: coeffs.Dot(seed)})
					}
					st.epoch++
					st.free = free
					st.prepareSliced()
					if free == 0 {
						GenerateWindowInto(window, cfg.LFSR, cfg.PS, cfg.Geo, seed, L)
					}
					for pos := 0; pos < cfg.Geo.Width; pos++ {
						ch, depth := cfg.Geo.Cell(pos)
						s := cfg.Geo.ShiftCycle(depth)*cfg.Geo.Chains + ch
						for w := 0; w < W; w++ {
							blk := st.block(s*W + w)
							for b := 0; b < 64; b++ {
								p := w*64 + b
								for i := 0; i <= free; i++ {
									got := uint8(blk[i] >> uint(b) & 1)
									var want uint8
									switch {
									case p >= L:
									case i == free && free == 0:
										want = window[p].Bit(pos)
									case i == free:
										want = st.table.Rows().Row(s*L + p).Dot(st.aff.X0)
									default:
										want = st.table.Rows().Row(s*L + p).Dot(st.aff.Gens[i])
									}
									if got != want {
										t.Fatalf("%v n=%d L=%d trial %d (%d free): slot %d (cell %d) position %d plane %d: %d, want %d",
											form, n, L, trial, free, s, pos, p, i, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFixedSeedScanMatchesSymbolic runs the encoder against the reference
// greedy (refEncode) and requires identical encodings — seeds,
// assignments, seed values and ChecksPerformed — across register sizes of
// one and two words, both register forms, windows of one to several plane
// words, and with pruning on and off (the noPruning switch); the full
// one-word register, n = 64, at L = 1 only. Every window of more than one
// position must decide words bit-sliced both below full rank and at it,
// and check no pair on projected rows (encodeScan).
//
// Classical reseeding also encodes a second set of 160 sparse cubes of one
// specified count, a single tier of many pairs, which sparse seeds check
// on projected rows. Over both sets, an L = 1 encode must check on
// projected rows below full rank and at it, and at n = 85, where a sparse
// seed's first commits leave more than gf2.ProjectedFree free variables,
// must also decide words bit-sliced, one lane each.
func TestFixedSeedScanMatchesSymbolic(t *testing.T) {
	t.Cleanup(func() { noPruning = false })
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		for _, n := range []int{8, 24, 56, 64, 85} {
			for _, L := range []int{1, 2, 20, 63, 64, 65, 130, 200} {
				if n == 64 && L > 1 {
					continue
				}
				t.Run(fmt.Sprintf("%v/n=%d/L=%d", form, n, L), func(t *testing.T) {
					cfg := formConfig(t, form, n, 112, 8, L, 0)
					sets := []*cube.Set{randomCubes(prng.New(uint64(n*1000+L)), cfg, 40, n/4, n/2)}
					if L == 1 {
						sets = append(sets, randomCubes(prng.New(uint64(n*1000+L+1)), cfg, 160, n/10, n/10))
					}
					var measured scanPaths
					for si, set := range sets {
						ref := refEncode(t, cfg, set)
						for _, noPruning = range []bool{false, true} {
							label := fmt.Sprintf("set %d noPruning=%v", si, noPruning)
							enc, paths, err := encodeScan(t, cfg, set)
							assertMatchesReference(t, label, ref, enc, err, noPruning)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							measured.add(paths)
							switch {
							case si > 0:
								// The sparse set's paths count only in total.
							case L > 1 && (paths.slicedFree == 0 || paths.slicedFull == 0):
								t.Fatalf("%s: %d sliced words below full rank, %d at full rank; want both", label, paths.slicedFree, paths.slicedFull)
							}
						}
					}
					noPruning = false
					switch {
					case L == 1 && (measured.projFree == 0 || measured.projFull == 0):
						t.Fatalf("%d projected pairs below full rank, %d at full rank; want both",
							measured.projFree, measured.projFull)
					case L == 1 && n-n/10 > gf2.ProjectedFree && measured.wide == 0:
						t.Fatalf("no L = 1 word decided bit-sliced at more than %d free variables", gf2.ProjectedFree)
					}
				})
			}
		}
	}
}

// FuzzEncodeFixedSeed compares the encoder, on the path its window length
// and free variables choose, with the reference greedy (refEncode) on
// random small cube sets: both must return the same encoding,
// ChecksPerformed included, or both fail on the same cube. Every window of
// more than one position decides its words bit-sliced; classical
// reseeding (L = 1) checks on projected rows once a seed's basis has at
// most gf2.ProjectedFree free variables. full sets the noPruning switch.
func FuzzEncodeFixedSeed(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint8(20), false, false)
	f.Add(uint64(7), uint8(2), uint8(0), uint8(12), true, false)
	f.Add(uint64(42), uint8(1), uint8(70), uint8(30), false, true)
	f.Add(uint64(5), uint8(1), uint8(199), uint8(25), true, true)
	f.Add(uint64(9), uint8(2), uint8(19), uint8(31), false, false)
	f.Add(uint64(11), uint8(2), uint8(0), uint8(31), false, false)
	f.Add(uint64(13), uint8(3), uint8(0), uint8(27), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, nSel, lSel, count uint8, galois, full bool) {
		n := []int{24, 56, 85, 64, 8}[int(nSel)%5]
		L := 1 + int(lSel)%200
		form := lfsr.Fibonacci
		if galois {
			form = lfsr.Galois
		}
		cfg := formConfig(t, form, n, 64, 4, L, 0)
		set := randomCubes(prng.New(seed), cfg, 1+int(count)%32, 1, n/2)
		noPruning = full
		defer func() { noPruning = false }()
		enc, _, err := encodeScan(t, cfg, set)
		assertMatchesReference(t, "encode vs reference", refEncode(t, cfg, set), enc, err, full)
	})
}

// pollSite classifies a context poll by its caller and by the tier being
// scanned: "sliced" from sliceWord at full rank, "sliced-free" below it,
// "projected" from scanCube's per-position checks on projected rows,
// "other" from anywhere else (the screen, a seed's first cube, the seed
// loop).
func pollSite(free int) string {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		fr, more := frames.Next()
		switch {
		case strings.HasSuffix(fr.Function, ".sliceWord") && free > 0:
			return "sliced-free"
		case strings.HasSuffix(fr.Function, ".sliceWord"):
			return "sliced"
		case strings.HasSuffix(fr.Function, ".scanCube"):
			return "projected"
		}
		if !more {
			return "other"
		}
	}
}

// pollLog is a live context recording the site of each Err call, with the
// free-variable count of the tier being scanned (set through
// scanTierHook).
type pollLog struct {
	context.Context
	free  int
	sites []string
}

func (c *pollLog) Err() error {
	c.sites = append(c.sites, pollSite(c.free))
	return nil
}

// TestEncodeCancelMidSeedLoop cancels an encode at chosen context polls
// that land inside the candidate scan — on the bit-sliced path both below
// full rank and at it, and on classical reseeding's projected rows — and
// requires each cancel to stop the scan
// with an error wrapping context.Canceled. It also checks EncodeCtx's
// documented poll cadence against the checks the reference greedy counts,
// the screen's probes included: checks made one position at a time,
// projected rows included, poll once per checkStride checks, and a sliced
// word, which decides up to 64 positions per step, never polls more often
// and at least once per checkStride+63 checks. So an L = 1 encode polls
// exactly once per checkStride checks. Every encode polls once per seed
// besides.
func TestEncodeCancelMidSeedLoop(t *testing.T) {
	for _, tc := range []struct {
		L, cubes int
		sites    []string
	}{
		{200, 60, []string{"sliced", "sliced-free"}},
		{1, 240, []string{"projected"}},
	} {
		cfg := formConfig(t, lfsr.Fibonacci, 24, 120, 6, tc.L, 0)
		set := randomCubes(prng.New(3), cfg, tc.cubes, 4, 8)
		var err error
		cfg.Tables, err = NewTables(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
		if err != nil {
			t.Fatal(err)
		}
		// Built tables: the build's own polls would shift the counts.
		if _, err := cfg.Tables.ExprTableCtx(context.Background()); err != nil {
			t.Fatal(err)
		}

		// The indices of an uncancelled encode's polls, per site.
		log := &pollLog{Context: context.Background()}
		scanTierHook = func(ts tierScan) { log.free = ts.free }
		enc, err := EncodeCtx(log, cfg, set)
		scanTierHook = nil
		if err != nil {
			t.Fatal(err)
		}
		fast := map[string][]int{}
		for i, s := range log.sites {
			fast[s] = append(fast[s], i)
		}
		for _, site := range tc.sites {
			if len(fast[site]) == 0 {
				t.Fatalf("L=%d: no poll in %s checks; want polls in each of %v", tc.L, site, tc.sites)
			}
		}
		ref := refEncode(t, cfg, set)
		assertMatchesReference(t, fmt.Sprintf("L=%d", tc.L), ref, enc, nil, false)
		checks := int(ref.screen + ref.checks)
		polls := len(log.sites) - len(enc.Seeds)
		if tc.L == 1 && polls != checks/checkStride ||
			polls > checks/checkStride || polls*(checkStride+63) < checks-(checkStride+63) {
			t.Errorf("L=%d: encode polled %d times per its checks, for %d checks", tc.L, polls, checks)
		}

		for _, site := range tc.sites {
			polls := fast[site]
			for _, i := range []int{polls[0], polls[len(polls)/2], polls[len(polls)-1]} {
				ctx := &stopAfterPolls{Context: context.Background(), polls: i}
				_, err := EncodeCtx(ctx, cfg, set)
				if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "candidate scan stopped") {
					t.Errorf("L=%d: cancel at poll %d (%s): err = %v, want a candidate-scan error wrapping context.Canceled", tc.L, i, site, err)
				}
			}
		}
	}
}
