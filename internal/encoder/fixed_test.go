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

// formConfig is StandardConfigVariant with a choice of register form.
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
	ps, err := phaseshifter.NewSeparatedVariant(l, chains, L*geo.Length, variant)
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

// encodeBothScans encodes set under cfg with the determined-seed shortcut
// and again with symbolicScanOnly, and returns both results and errors
// together with the number of tiers the shortcut run scanned on planes.
// Those tiers must run inline: their planes are built on first use.
func encodeBothScans(t testing.TB, cfg Config, set *cube.Set) (fast, slow *Encoding, fastErr, slowErr error, fixedTiers int) {
	t.Helper()
	defer func() { scanTierHook, symbolicScanOnly = nil, false }()
	scanTierHook = func(_ int, split, fixed bool) {
		if fixed {
			fixedTiers++
			if split {
				t.Errorf("a determined seed's tier was split across workers")
			}
		}
	}
	fast, fastErr = EncodeCtx(context.Background(), cfg, set)
	scanTierHook = func(_ int, _, fixed bool) {
		if fixed {
			t.Errorf("symbolicScanOnly encode scanned a tier on planes")
		}
	}
	symbolicScanOnly = true
	slow, slowErr = EncodeCtx(context.Background(), cfg, set)
	return fast, slow, fastErr, slowErr, fixedTiers
}

// TestPlanesMatchGeneration ties a determined seed's planes to the
// hardware, as TestTableMatchesGeneration ties the symbolic table: for
// random seeds, every plane bit of every output slot equals the bit the
// concrete window generator shifts into that slot's scan cell at that
// window position. Registers of one and two words, both register forms,
// windows of one, exactly one, just over one and several plane words.
func TestPlanesMatchGeneration(t *testing.T) {
	src := prng.New(2024)
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		for _, n := range []int{24, 56, 85} {
			for _, L := range []int{1, 64, 65, 200} {
				cfg := formConfig(t, form, n, 90, 4, L, 0)
				table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, L)
				if err != nil {
					t.Fatal(err)
				}
				W := (L + 63) / 64
				slots := cfg.Geo.Length * cfg.Geo.Chains
				st := &encodeState{
					table: table, L: L, feasWords: W,
					planes: make([]uint64, slots*W), planeSeed: make([]uint32, slots),
				}
				window := make([]gf2.Vec, L)
				for trial := 0; trial < 3; trial++ {
					seed := gf2.NewVec(n)
					for i := 0; i < n; i++ {
						seed.SetBit(i, src.Bit())
					}
					st.seedVal = seed
					st.fixedSeeds++
					for s := 0; s < slots; s++ {
						st.buildPlane(int32(s))
					}
					GenerateWindowInto(window, cfg.LFSR, cfg.PS, cfg.Geo, seed, L)
					for pos := 0; pos < cfg.Geo.Width; pos++ {
						ch, depth := cfg.Geo.Cell(pos)
						s := cfg.Geo.ShiftCycle(depth)*cfg.Geo.Chains + ch
						for p := 0; p < L; p++ {
							got := uint8(st.planes[s*W+p/64] >> uint(p%64) & 1)
							if want := window[p].Bit(pos); got != want {
								t.Fatalf("%v n=%d L=%d trial %d: slot %d (cell %d) position %d: plane %d, generator %d",
									form, n, L, trial, s, pos, p, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestFixedSeedScanMatchesSymbolic runs the determined-seed shortcut
// against the symbolic scan it replaces and requires identical encodings
// — seeds, assignments, seed values and ChecksPerformed — across register
// sizes of one and two words, both register forms, windows of one to
// several plane words, one and several workers, and with pruning on and
// off. Every configuration must actually reach the shortcut.
func TestFixedSeedScanMatchesSymbolic(t *testing.T) {
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		for _, n := range []int{24, 56, 85} {
			for _, L := range []int{1, 64, 65, 200} {
				t.Run(fmt.Sprintf("%v/n=%d/L=%d", form, n, L), func(t *testing.T) {
					cfg := formConfig(t, form, n, 112, 8, L, 0)
					// A one-vector window needs more cubes to fill a seed.
					count := 16
					if L == 1 {
						count = 32
					}
					set := randomCubes(prng.New(uint64(n*1000+L)), cfg, count, n/4, n/2)
					for _, workers := range []int{1, 4} {
						for _, noPruning := range []bool{false, true} {
							cfg.Workers, cfg.NoPruning = workers, noPruning
							label := fmt.Sprintf("workers=%d NoPruning=%v", workers, noPruning)
							fast, slow, fastErr, slowErr, fixed := encodeBothScans(t, cfg, set)
							if fastErr != nil || slowErr != nil {
								t.Fatalf("%s: shortcut err %v, symbolic err %v", label, fastErr, slowErr)
							}
							if fixed == 0 {
								t.Fatalf("%s: no seed reached full rank; the comparison is vacuous", label)
							}
							assertEncodingsIdentical(t, label, slow, fast)
						}
					}
				})
			}
		}
	}
}

// FuzzEncodeFixedSeed compares the determined-seed shortcut with the
// symbolic scan on random small cube sets: both must return the same
// encoding, or the same error.
func FuzzEncodeFixedSeed(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint8(20), false, false)
	f.Add(uint64(7), uint8(2), uint8(0), uint8(12), true, false)
	f.Add(uint64(42), uint8(1), uint8(70), uint8(30), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, nSel, lSel, count uint8, galois, noPruning bool) {
		n := []int{24, 56, 85}[int(nSel)%3]
		L := 1 + int(lSel)%130
		form := lfsr.Fibonacci
		if galois {
			form = lfsr.Galois
		}
		cfg := formConfig(t, form, n, 64, 4, L, 0)
		set := randomCubes(prng.New(seed), cfg, 1+int(count)%32, 1, n/2)
		cfg.Workers, cfg.NoPruning = 2, noPruning
		fast, slow, fastErr, slowErr, _ := encodeBothScans(t, cfg, set)
		if (fastErr == nil) != (slowErr == nil) || (fastErr != nil && fastErr.Error() != slowErr.Error()) {
			t.Fatalf("shortcut err %v, symbolic err %v", fastErr, slowErr)
		}
		if fastErr == nil {
			assertEncodingsIdentical(t, "shortcut vs symbolic", slow, fast)
		}
	})
}

// pollSite classifies a context poll by its caller: "fixed" from
// scanCubeFixed, "symbolic" from scanCube, "other" from anywhere else
// (the screen, a seed's first cube, the seed loop).
func pollSite() string {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		fr, more := frames.Next()
		switch {
		case strings.HasSuffix(fr.Function, ".scanCubeFixed"):
			return "fixed"
		case strings.HasSuffix(fr.Function, ".scanCube"):
			return "symbolic"
		}
		if !more {
			return "other"
		}
	}
}

// pollLog is a live context recording the site of each Err call.
type pollLog struct {
	context.Context
	sites []string
}

func (c *pollLog) Err() error {
	c.sites = append(c.sites, pollSite())
	return nil
}

// TestEncodeCancelMidSeedLoop cancels an encode at chosen context polls
// that land inside the candidate scan, both in a symbolic tier and in a
// tier of a determined seed, and requires each cancel to stop the scan
// with an error wrapping context.Canceled. It also checks EncodeCtx's
// documented poll cadence: the symbolic scan polls once per checkStride
// checks, and the shortcut, which decides up to 64 positions per step,
// never more often and at least once per checkStride+63 checks. Both
// encodes poll once per seed besides, and make the same seeds.
func TestEncodeCancelMidSeedLoop(t *testing.T) {
	cfg := formConfig(t, lfsr.Fibonacci, 24, 120, 6, 200, 0)
	set := randomCubes(prng.New(3), cfg, 60, 6, 12)
	cfg.Workers = 1
	var err error
	cfg.Tables, err = NewTables(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	// Built tables: the build's own polls would shift the counts.
	if _, err := cfg.Tables.ExprTableCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	// pollSites returns, per site, the indices of an uncancelled encode's
	// polls, and how many polls came from the checks' cadence.
	pollSites := func(symbolic bool) (map[string][]int, int) {
		symbolicScanOnly = symbolic
		defer func() { symbolicScanOnly = false }()
		log := &pollLog{Context: context.Background()}
		enc, err := EncodeCtx(log, cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		at := map[string][]int{}
		for i, s := range log.sites {
			at[s] = append(at[s], i)
		}
		return at, len(log.sites) - len(enc.Seeds)
	}
	fast, fastPolls := pollSites(false)
	_, slowPolls := pollSites(true)
	if len(fast["fixed"]) == 0 || len(fast["symbolic"]) == 0 {
		t.Fatalf("%d polls in determined-seed tiers, %d in symbolic ones: want both", len(fast["fixed"]), len(fast["symbolic"]))
	}
	if fastPolls > slowPolls || fastPolls*(checkStride+63) < slowPolls*checkStride-(checkStride+63) {
		t.Errorf("shortcut encode polled %d times per its checks, symbolic encode %d", fastPolls, slowPolls)
	}

	for _, site := range []string{"symbolic", "fixed"} {
		polls := fast[site]
		for _, i := range []int{polls[0], polls[len(polls)/2], polls[len(polls)-1]} {
			ctx := &stopAfterPolls{Context: context.Background(), polls: i}
			_, err := EncodeCtx(ctx, cfg, set)
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "candidate scan stopped") {
				t.Errorf("cancel at poll %d (%s tier): err = %v, want a candidate-scan error wrapping context.Canceled", i, site, err)
			}
		}
	}
}
