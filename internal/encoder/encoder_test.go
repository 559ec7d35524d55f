package encoder

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/prng"
)

func smallConfig(t testing.TB, n, width, chains, L int) Config {
	t.Helper()
	cfg, err := StandardConfigVariant(n, width, chains, L, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestTableMatchesGeneration pins the symbolic expression table to the
// concrete window generator: for random seeds, evaluating each table
// expression at the seed must equal the generated stimulus bit. Everything
// else in the repository rests on this equality.
func TestTableMatchesGeneration(t *testing.T) {
	cfg := smallConfig(t, 16, 50, 4, 6)
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(99)
	for trial := 0; trial < 10; trial++ {
		seed := gf2.NewVec(16)
		for i := 0; i < 16; i++ {
			seed.SetBit(i, src.Bit())
		}
		window := GenerateWindow(cfg.LFSR, cfg.PS, cfg.Geo, seed, cfg.WindowLen)
		for v := 0; v < cfg.WindowLen; v++ {
			for pos := 0; pos < cfg.Geo.Width; pos++ {
				want := window[v].Bit(pos)
				got := table.Expr(v, pos).Dot(seed)
				if got != want {
					t.Fatalf("trial %d: vector %d pos %d: table says %d, generator says %d", trial, v, pos, got, want)
				}
			}
		}
	}
}

func genSet(t testing.TB, name string, scaleCubes int) *cube.Set {
	t.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if scaleCubes > 0 {
		p.NumCubes = scaleCubes
	}
	return p.Generate()
}

func TestEncodeRoundTrip(t *testing.T) {
	set := genSet(t, "s13207", 40)
	cfg := smallConfig(t, 16, set.Width, 8, 12)
	enc, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	if enc.TDV() != len(enc.Seeds)*16 {
		t.Errorf("TDV = %d", enc.TDV())
	}
	if enc.TSL() != len(enc.Seeds)*12 {
		t.Errorf("TSL = %d", enc.TSL())
	}
	if len(enc.Seeds) == 0 || len(enc.Seeds) > set.Len() {
		t.Errorf("suspicious seed count %d for %d cubes", len(enc.Seeds), set.Len())
	}
}

func TestClassicalReseedingL1(t *testing.T) {
	set := genSet(t, "s9234", 30)
	cfg := smallConfig(t, 24, set.Width, 8, 1)
	enc, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	for si, s := range enc.Seeds {
		for _, a := range s.Assignments {
			if a.Pos != 0 {
				t.Errorf("seed %d: L=1 assignment at pos %d", si, a.Pos)
			}
		}
	}
}

func TestWindowEncodingNeedsFewerSeeds(t *testing.T) {
	// The motivation experiment of the paper's Table 1: larger L ⇒ fewer
	// seeds (lower TDV) at the cost of a longer sequence.
	set := genSet(t, "s13207", 60)
	var prevSeeds int
	for i, L := range []int{1, 8, 32} {
		cfg := smallConfig(t, 16, set.Width, 8, L)
		enc, err := EncodeCtx(context.Background(), cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(enc.Seeds) > prevSeeds {
			t.Errorf("L=%d needs %d seeds, more than previous %d", L, len(enc.Seeds), prevSeeds)
		}
		prevSeeds = len(enc.Seeds)
	}
}

// assertEncodingsIdentical compares two encodings bit for bit: seed values,
// every assignment, and the consistency-check count.
func assertEncodingsIdentical(t *testing.T, label string, a, b *Encoding) {
	t.Helper()
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("%s: seed count %d vs %d", label, len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if !a.Seeds[i].Value.Equal(b.Seeds[i].Value) {
			t.Fatalf("%s: seed %d value differs", label, i)
		}
		if len(a.Seeds[i].Assignments) != len(b.Seeds[i].Assignments) {
			t.Fatalf("%s: seed %d assignment count differs", label, i)
		}
		for j := range a.Seeds[i].Assignments {
			if a.Seeds[i].Assignments[j] != b.Seeds[i].Assignments[j] {
				t.Fatalf("%s: seed %d assignment %d differs", label, i, j)
			}
		}
	}
	if a.ChecksPerformed != b.ChecksPerformed {
		t.Fatalf("%s: checks %d vs %d", label, a.ChecksPerformed, b.ChecksPerformed)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	set := genSet(t, "s15850", 30)
	cfg := smallConfig(t, 20, set.Width, 8, 10)
	a, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "rerun", a, b)
}

// TestEncodeScanPaths proves through scanTierHook that the path follows
// the window length alone at L = 12 and L = 32: window words are decided
// bit-sliced below full rank and at it, and no tier checks a pair on
// projected rows, however few positions a word still holds. The encode
// must match the reference greedy (refEncode): seeds, assignments, seed
// values and ChecksPerformed.
func TestEncodeScanPaths(t *testing.T) {
	set := genSet(t, "s38417", 0)
	var projected, slicedFree, slicedFull int
	scanTierHook = func(ts tierScan) {
		if ts.projected {
			projected++
		}
		if ts.slicedWords > 0 && ts.free > 0 {
			slicedFree++
		}
		if ts.slicedWords > 0 && ts.free == 0 {
			slicedFull++
		}
	}
	t.Cleanup(func() { scanTierHook = nil })
	for _, L := range []int{12, 32} {
		cfg := smallConfig(t, 32, set.Width, 8, L)
		projected, slicedFree, slicedFull = 0, 0, 0
		got, err := EncodeCtx(context.Background(), cfg, set)
		assertMatchesReference(t, fmt.Sprintf("L=%d encode vs reference", L), refEncode(t, cfg, set), got, err, false)
		if projected > 0 || slicedFree == 0 || slicedFull == 0 {
			t.Errorf("L=%d: %d tiers checked on projected rows, %d with sliced words below full rank, %d at full rank; want none, some and some",
				L, projected, slicedFree, slicedFull)
		}
	}
}

// TestEncodePackedLaneWords compares EncodeCtx with the reference greedy
// (refEncode) on both sides of every packing threshold: a window's last
// word holds ℓ = L − 64(⌈L/64⌉ − 1) positions, and the last words of
// g = ⌊64/ℓ⌋ cubes of a tier share one lane word. The window lengths give
// g = 32, 3, 3, 2, 1, 1, 64, 32 and 8; n = 85 with sparse cubes adds
// classical reseeding tiers above gf2.ProjectedFree free variables (ℓ = 1,
// g = 64). Every case with g > 1 must pack (fewer lane words than cube
// words) and have a tier whose last words fill at least one group and
// leave a partial one; at g = 1 every cube word is its own lane word.
func TestEncodePackedLaneWords(t *testing.T) {
	type tc struct {
		n, L, cubes, spec int
	}
	var cases []tc
	for _, L := range []int{2, 20, 21, 32, 33, 64, 65, 130, 200} {
		cases = append(cases, tc{24, L, 140, 5})
	}
	cases = append(cases, tc{85, 1, 160, 8})
	for _, c := range cases {
		cfg := formConfig(t, lfsr.Fibonacci, c.n, 112, 8, c.L, 0)
		set := randomCubes(prng.New(uint64(c.L)), cfg, c.cubes, c.spec, c.spec+1)
		ell := c.L - 64*((c.L+63)/64-1)
		g := 64 / ell
		var cubeWords, laneWords, partial int
		scanTierHook = func(ts tierScan) {
			if ts.projected {
				return
			}
			cubeWords += ts.slicedWords
			laneWords += ts.laneWords
			if ts.lastWords > g && ts.lastWords%g != 0 {
				partial++
			}
		}
		enc, err := EncodeCtx(context.Background(), cfg, set)
		scanTierHook = nil
		label := fmt.Sprintf("n=%d L=%d (g=%d)", c.n, c.L, g)
		assertMatchesReference(t, label, refEncode(t, cfg, set), enc, err, false)
		switch {
		case g == 1 && laneWords != cubeWords:
			t.Errorf("%s: %d lane words for %d cube words; want one each", label, laneWords, cubeWords)
		case g > 1 && (laneWords >= cubeWords || partial == 0):
			t.Errorf("%s: %d lane words for %d cube words, %d tiers with a full and a partial group; want fewer lane words and some such tier",
				label, laneWords, cubeWords, partial)
		}
	}
}

// TestEncodeGolden locks the exact encoder output (seed bits, assignments,
// check counts, phase-shifter variant) to the values produced before the
// reduced-basis engine landed, recorded from the naive per-check Gaussian
// re-elimination implementation. Any optimisation must keep these hashes.
func TestEncodeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	golden := []struct {
		circuit string
		L       int
		seeds   int
		variant uint64
		checks  int64
		sha     string
	}{
		{"s9234", 1, 17, 0, 422, "3bee2f1a5a219130"},
		{"s9234", 8, 12, 0, 2241, "1debcd69beb33f9e"},
		{"s13207", 12, 8, 0, 2655, "12117b5814d3a21f"},
		{"s15850", 10, 10, 0, 2419, "2673aac6a4874203"},
		{"s38417", 16, 28, 0, 18955, "6525763250d6d42c"},
		{"s38584", 24, 10, 1, 6787, "fa5ecc7a39d98366"},
	}
	for _, g := range golden {
		g := g
		t.Run(fmt.Sprintf("%s_L%d", g.circuit, g.L), func(t *testing.T) {
			t.Parallel()
			p, err := benchprofile.ByName(g.circuit, benchprofile.ScaleCI)
			if err != nil {
				t.Fatal(err)
			}
			set := p.Generate()
			enc, variant, err := EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, g.L, set, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, s := range enc.Seeds {
				fmt.Fprintf(h, "%s\n", s.Value.String())
				for _, a := range s.Assignments {
					fmt.Fprintf(h, "%d@%d ", a.Cube, a.Pos)
				}
				fmt.Fprintln(h)
			}
			sha := hex.EncodeToString(h.Sum(nil)[:8])
			if len(enc.Seeds) != g.seeds || variant != g.variant || enc.ChecksPerformed != g.checks || sha != g.sha {
				t.Fatalf("golden mismatch: seeds=%d variant=%d checks=%d sha=%s, want seeds=%d variant=%d checks=%d sha=%s",
					len(enc.Seeds), variant, enc.ChecksPerformed, sha, g.seeds, g.variant, g.checks, g.sha)
			}
		})
	}
}

// TestEncodeSharedTablesIdentical runs the same encoding with private
// tables, with explicitly shared tables, and through EncodeAutoCtx's
// TablesCache path (shared and nil cache); all must agree bit for bit,
// the shared runs must report ~zero table-build time on reuse, and a
// second encode through the same cache must reuse the accepted variant's
// tables.
func TestEncodeSharedTablesIdentical(t *testing.T) {
	ctx := context.Background()
	set := genSet(t, "s13207", 40)
	cfg := smallConfig(t, 16, set.Width, 8, 12)
	private := cfg
	private.Tables = nil
	want, err := EncodeCtx(ctx, private, set)
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := NewTables(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tables = tabs
	first, err := EncodeCtx(ctx, cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "shared tables", want, first)
	again, err := EncodeCtx(ctx, cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "shared tables reuse", want, again)
	// The reuse path does no symbolic simulation; a generous absolute cap
	// keeps the assertion meaningful without racing the scheduler.
	if again.TableBuildTime > 100*time.Millisecond {
		t.Errorf("reused tables reported %v build time", again.TableBuildTime)
	}

	// The cache path must equal a plain encode on a freshly assembled
	// standard configuration of the variant it settled on — including a
	// profile (s38584, L=24) whose variant 0 fails and variant 1 encodes.
	p, err := benchprofile.ByName("s38584", benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		n, chains, L int
		set          *cube.Set
		variant      uint64
	}{
		{"s13207", 16, 8, 12, set, 0},
		{"s38584", p.LFSRSize, p.Chains, 24, p.Generate(), 1},
	}
	for _, tc := range cases {
		cache := NewTablesCache()
		a, va, err := EncodeAutoCtx(ctx, tc.n, tc.set.Width, tc.chains, tc.L, tc.set, 0, cache)
		if err != nil {
			t.Fatal(err)
		}
		if va != tc.variant {
			t.Fatalf("%s: settled on variant %d, want %d", tc.name, va, tc.variant)
		}
		fresh, err := StandardConfigVariant(tc.n, tc.set.Width, tc.chains, tc.L, va)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeCtx(ctx, fresh, tc.set)
		if err != nil {
			t.Fatal(err)
		}
		assertEncodingsIdentical(t, tc.name+": cache vs fresh config", b, a)
		c, vc, err := EncodeAutoCtx(ctx, tc.n, tc.set.Width, tc.chains, tc.L, tc.set, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if vc != va {
			t.Fatalf("%s: nil-cache variant %d != cached %d", tc.name, vc, va)
		}
		assertEncodingsIdentical(t, tc.name+": nil cache vs cache", a, c)
		if c.Cfg.Tables == a.Cfg.Tables {
			t.Fatalf("%s: nil cache reused the cached variant's tables", tc.name)
		}
		again, _, err := EncodeAutoCtx(ctx, tc.n, tc.set.Width, tc.chains, tc.L, tc.set, 0, cache)
		if err != nil {
			t.Fatal(err)
		}
		if again.Cfg.Tables != a.Cfg.Tables {
			t.Fatalf("%s: a second encode through the cache rebuilt variant %d's tables", tc.name, va)
		}
	}
}

// TestEncodeRejectsForeignTables guards the Config.Tables validation: a
// Tables built for one decompressor or window length must not silently
// encode another.
func TestEncodeRejectsForeignTables(t *testing.T) {
	set := genSet(t, "s9234", 10)
	cfg := smallConfig(t, 24, set.Width, 8, 4)
	other := smallConfig(t, 24, set.Width, 8, 4)
	for _, tc := range []struct {
		name string
		c    Config
		L    int
	}{
		{"different decompressor", other, 4},
		{"different window length", cfg, 5},
	} {
		tabs, err := NewTables(tc.c.LFSR, tc.c.PS, tc.c.Geo, tc.L)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Tables = tabs
		if _, err := EncodeCtx(context.Background(), c, set); err == nil {
			t.Errorf("%s: foreign tables accepted", tc.name)
		}
	}
}

// TestPruningAblationIdentical checks that monotone feasibility pruning
// changes only the number of consistency checks performed, never seeds or
// assignments — at a one-word window and at L = 130, whose feasibility
// rows span three words with a partial last word.
func TestPruningAblationIdentical(t *testing.T) {
	set := genSet(t, "s9234", 25)
	for _, L := range []int{8, 130} {
		cfg := smallConfig(t, 24, set.Width, 8, L)
		pruned, err := EncodeCtx(context.Background(), cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		noPruning = true
		full, err := EncodeCtx(context.Background(), cfg, set)
		noPruning = false
		if err != nil {
			t.Fatal(err)
		}
		// Equal check counts would make the comparison vacuous.
		if pruned.ChecksPerformed >= full.ChecksPerformed {
			t.Errorf("L=%d: pruning performed %d checks, full scan %d", L, pruned.ChecksPerformed, full.ChecksPerformed)
		}
		full.ChecksPerformed = pruned.ChecksPerformed
		assertEncodingsIdentical(t, fmt.Sprintf("L=%d pruned vs noPruning", L), pruned, full)
	}
}

// BenchmarkAblationPruning quantifies monotone feasibility pruning:
// consistency checks with and without it on a CI-scale s13207 set at
// L = 16. The encoding is identical either way
// (TestPruningAblationIdentical); only the work differs.
func BenchmarkAblationPruning(b *testing.B) {
	p, err := benchprofile.ByName("s13207", benchprofile.ScaleCI)
	if err != nil {
		b.Fatal(err)
	}
	p.NumCubes = 40
	set := p.Generate()
	cfg := smallConfig(b, p.LFSRSize, p.Width, p.Chains, 16)
	b.Cleanup(func() { noPruning = false })
	var pruned, full int64
	for i := 0; i < b.N; i++ {
		noPruning = false
		encP, err := EncodeCtx(context.Background(), cfg, set)
		if err != nil {
			b.Fatal(err)
		}
		pruned = encP.ChecksPerformed
		noPruning = true
		encF, err := EncodeCtx(context.Background(), cfg, set)
		if err != nil {
			b.Fatal(err)
		}
		full = encF.ChecksPerformed
	}
	b.ReportMetric(float64(full)/float64(pruned), "check-reduction-x")
}

// TestEncodeExtendedTablesIdentical encodes one set through shared Tables
// at several window lengths (3, 4, 5, 9, 70 and 12), one Tables value per
// length. Two encodes through each, the second reading the arena the first
// read, must equal one with fresh private tables: seeds, assignments and
// ChecksPerformed. The same encodes then run at once, three per length
// through new shared tables.
func TestEncodeExtendedTablesIdentical(t *testing.T) {
	ctx := context.Background()
	set := genSet(t, "s9234", 25)
	cfg := smallConfig(t, 24, set.Width, 8, 70)
	lengths := []int{3, 4, 5, 9, 70, 12}
	want := make([]*Encoding, len(lengths))
	for i, L := range lengths {
		c := cfg
		c.WindowLen, c.Tables = L, nil
		var err error
		if want[i], err = EncodeCtx(ctx, c, set); err != nil {
			t.Fatal(err)
		}
	}
	shared := func(L int) Config {
		t.Helper()
		c := cfg
		c.WindowLen = L
		var err error
		if c.Tables, err = NewTables(c.LFSR, c.PS, c.Geo, L); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for i, L := range lengths {
		c := shared(L)
		for _, pass := range []string{"first", "reuse"} {
			got, err := EncodeCtx(ctx, c, set)
			if err != nil {
				t.Fatal(err)
			}
			assertEncodingsIdentical(t, fmt.Sprintf("L=%d shared vs fresh tables (%s)", L, pass), want[i], got)
		}
	}

	const perLen = 3
	got := make([]*Encoding, len(lengths)*perLen)
	var wg sync.WaitGroup
	for i, L := range lengths {
		c := shared(L)
		for j := 0; j < perLen; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if got[i*perLen+j], err = EncodeCtx(ctx, c, set); err != nil {
					t.Errorf("L=%d: %v", L, err)
				}
			}()
		}
	}
	wg.Wait()
	for k, enc := range got {
		if enc != nil {
			L := lengths[k/perLen]
			assertEncodingsIdentical(t, fmt.Sprintf("L=%d concurrent shared vs fresh tables", L), want[k/perLen], enc)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	set := genSet(t, "s9234", 10)
	cfg := smallConfig(t, 24, set.Width, 8, 4)
	cfg.WindowLen = 0
	if _, err := EncodeCtx(context.Background(), cfg, set); err == nil {
		t.Error("L=0 accepted")
	}
	cfg = smallConfig(t, 24, set.Width+10, 8, 4)
	if _, err := EncodeCtx(context.Background(), cfg, set); err == nil {
		t.Error("width mismatch accepted")
	}
	cfg = smallConfig(t, 24, set.Width, 8, 4)
	if _, err := EncodeCtx(context.Background(), cfg, cube.NewSet(set.Width)); err == nil {
		t.Error("empty set accepted")
	}
}

func TestEncodeFailsWhenLFSRTooSmall(t *testing.T) {
	// A cube with more specified bits than a tiny LFSR can ever satisfy at
	// any position should produce a clear error, not loop forever.
	set := cube.NewSet(64)
	dense := cube.New(64)
	for i := 0; i < 64; i++ {
		dense.Set(i, uint8(i%2))
	}
	set.Add(dense)
	cfg := smallConfig(t, 12, 64, 4, 2)
	if _, err := EncodeCtx(context.Background(), cfg, set); err == nil {
		t.Error("expected failure for oversized cube, got success")
	}
}

// unembeddableCube draws cubes of `bits` random specified bits until one
// is confirmed, with a plain solver, inconsistent at every position of the
// table's window, and returns it.
func unembeddableCube(t *testing.T, table *ExprTable, width, bits int, src *prng.Source) cube.Cube {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		c := cube.New(width)
		for c.SpecifiedCount() < bits {
			c.Set(src.Intn(width), src.Bit())
		}
		embeddable := false
		for pos := 0; pos < table.L && !embeddable; pos++ {
			s := gf2.NewSolver(table.N)
			embeddable = true
			for _, cell := range c.Specified() {
				if _, ok := s.Add(gf2.Equation{Coeffs: table.Expr(pos, cell), RHS: uint8(c.Get(cell))}); !ok {
					embeddable = false
					break
				}
			}
		}
		if !embeddable {
			return c
		}
	}
	t.Fatalf("no unembeddable %d-bit cube drawn", bits)
	return cube.Cube{}
}

// TestEncodeScreen checks the fresh-window screen: a set holding cubes no
// seed can embed fails with the error naming the first of them in
// densest-first order (ties by index), worded exactly as when the seed
// loop reached it, and a context cancelled while screening stops the
// encode with context.Canceled.
func TestEncodeScreen(t *testing.T) {
	set := genSet(t, "s9234", 30)
	cfg := smallConfig(t, 24, set.Width, 8, 6)
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(5)
	sparse := unembeddableCube(t, table, set.Width, 44, src)
	dense := unembeddableCube(t, table, set.Width, 50, src)
	denseTwin := unembeddableCube(t, table, set.Width, 50, src)
	set.Add(sparse)
	set.Add(dense)
	want := set.Len() - 1
	set.Add(denseTwin)
	_, err = EncodeCtx(context.Background(), cfg, set)
	msg := fmt.Sprintf("encoder: cube %d (%d specified bits) cannot be embedded anywhere in a fresh window; increase the LFSR size (n=%d)", want, 50, 24)
	if err == nil || err.Error() != msg {
		t.Fatalf("err = %v, want %q", err, msg)
	}

	// A window longer than the poll stride: screening the unembeddable
	// densest cube alone polls the (already cancelled) context.
	long := smallConfig(t, 24, set.Width, 8, 2*checkStride)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = EncodeCtx(ctx, long, set)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "screening") {
		t.Fatalf("cancelled screen: err = %v, want a screening error wrapping context.Canceled", err)
	}
}

func TestAllCIProfilesEncodable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range benchprofile.All(benchprofile.ScaleCI) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			set := p.Generate()
			cfg := smallConfig(t, p.LFSRSize, p.Width, p.Chains, 16)
			enc, err := EncodeCtx(context.Background(), cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
