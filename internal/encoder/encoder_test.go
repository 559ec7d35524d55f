package encoder

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/prng"
)

func smallConfig(t testing.TB, n, width, chains, L int) Config {
	t.Helper()
	cfg, err := StandardConfig(n, width, chains, L)
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
	table, err := BuildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
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
	enc, err := Encode(cfg, set)
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
	enc, err := Encode(cfg, set)
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
		enc, err := Encode(cfg, set)
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
	a, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "rerun", a, b)
}

// TestEncodeWorkersBitIdentical asserts the candidate scan's determinism
// contract: seeds, assignments and even the number of consistency checks
// are identical for any Workers value (the scan fans out over per-worker
// reduced views, but every (cube, position) verdict is value-deterministic
// and the tie-breaks are index-addressed).
func TestEncodeWorkersBitIdentical(t *testing.T) {
	set := genSet(t, "s38417", 0)
	cfg := smallConfig(t, 32, set.Width, 8, 12)
	cfg.Workers = 1
	want, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 0} {
		cfg.Workers = workers
		got, err := Encode(cfg, set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertEncodingsIdentical(t, fmt.Sprintf("workers=%d", workers), want, got)
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
			enc, variant, err := EncodeAuto(p.LFSRSize, p.Width, p.Chains, g.L, set)
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
// tables, with explicitly shared tables, and through the TablesCache path;
// all three must agree bit for bit, and the shared runs must report ~zero
// table-build time on reuse.
func TestEncodeSharedTablesIdentical(t *testing.T) {
	set := genSet(t, "s13207", 40)
	cfg := smallConfig(t, 16, set.Width, 8, 12)
	want, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := NewTables(cfg.LFSR, cfg.PS, cfg.Geo)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tables = tabs
	first, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "shared tables", want, first)
	again, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "shared tables reuse", want, again)
	// The reuse path does no symbolic simulation; a generous absolute cap
	// keeps the assertion meaningful without racing the scheduler.
	if again.TableBuildTime > 100*time.Millisecond {
		t.Errorf("reused tables reported %v build time", again.TableBuildTime)
	}

	cache := NewTablesCache()
	a, va, err := EncodeAutoCached(16, set.Width, 8, 12, set, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	b, vb, err := EncodeAutoCached(16, set.Width, 8, 12, set, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if va != vb {
		t.Fatalf("cached variant %d != uncached %d", va, vb)
	}
	assertEncodingsIdentical(t, "cache vs fresh", b, a)
}

// TestEncodeRejectsForeignTables guards the Config.Tables validation: a
// Tables built for one decompressor must not silently encode another.
func TestEncodeRejectsForeignTables(t *testing.T) {
	set := genSet(t, "s9234", 10)
	cfg := smallConfig(t, 24, set.Width, 8, 4)
	other := smallConfig(t, 24, set.Width, 8, 4)
	tabs, err := NewTables(other.LFSR, other.PS, other.Geo)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tables = tabs
	if _, err := Encode(cfg, set); err == nil {
		t.Error("foreign tables accepted")
	}
}

func TestPruningAblationIdentical(t *testing.T) {
	// Monotone feasibility pruning must not change the result, only the
	// number of consistency checks performed.
	set := genSet(t, "s9234", 25)
	cfg := smallConfig(t, 24, set.Width, 8, 8)
	pruned, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoPruning = true
	full, err := Encode(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Seeds) != len(full.Seeds) {
		t.Fatalf("pruning changed seed count: %d vs %d", len(pruned.Seeds), len(full.Seeds))
	}
	for i := range pruned.Seeds {
		if !pruned.Seeds[i].Value.Equal(full.Seeds[i].Value) {
			t.Fatalf("pruning changed seed %d", i)
		}
	}
	if pruned.ChecksPerformed > full.ChecksPerformed {
		t.Errorf("pruning performed more checks (%d) than full scan (%d)", pruned.ChecksPerformed, full.ChecksPerformed)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	set := genSet(t, "s9234", 10)
	cfg := smallConfig(t, 24, set.Width, 8, 4)
	cfg.WindowLen = 0
	if _, err := Encode(cfg, set); err == nil {
		t.Error("L=0 accepted")
	}
	cfg = smallConfig(t, 24, set.Width+10, 8, 4)
	if _, err := Encode(cfg, set); err == nil {
		t.Error("width mismatch accepted")
	}
	cfg = smallConfig(t, 24, set.Width, 8, 4)
	if _, err := Encode(cfg, cube.NewSet(set.Width)); err == nil {
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
	if _, err := Encode(cfg, set); err == nil {
		t.Error("expected failure for oversized cube, got success")
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
			enc, err := Encode(cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
