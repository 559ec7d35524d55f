package stateskip

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/lfsr"
	"repro/internal/scan"
)

// EncodeProfile lets the external tests of this package encode profiles.
var EncodeProfile = encodeProfile

func encodeProfile(t testing.TB, name string, numCubes, L int) *encoder.Encoding {
	t.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if numCubes > 0 {
		p.NumCubes = numCubes
	}
	set := p.Generate()
	enc, _, err := encoder.EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, L, set, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestReduceBasicInvariants(t *testing.T) {
	enc := encodeProfile(t, "s13207", 50, 20)
	red, err := ReduceWithIndex(enc, nil, DefaultOptions(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	if red.Segs != 4 {
		t.Errorf("Segs = %d, want 4", red.Segs)
	}
	if red.TSL() > enc.TSL() {
		t.Errorf("shortened TSL %d exceeds original %d", red.TSL(), enc.TSL())
	}
	if red.TSL() <= 0 {
		t.Errorf("TSL = %d", red.TSL())
	}
	imp := red.Improvement()
	if imp < 0 || imp >= 1 {
		t.Errorf("improvement %f out of range", imp)
	}
}

func TestKeepFirstSegment(t *testing.T) {
	enc := encodeProfile(t, "s9234", 40, 16)
	red, err := ReduceWithIndex(enc, nil, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	for si := range red.Useful {
		if !red.Useful[si][0] {
			t.Errorf("seed %d: first segment not useful despite KeepFirstSegment", si)
		}
	}
	// Without pinning, coverage must still hold.
	opt := Options{SegmentSize: 4, Speedup: 8}
	red2, err := ReduceWithIndex(enc, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := red2.Verify(); err != nil {
		t.Fatal(err)
	}
	if red2.TotalUseful() > red.TotalUseful() {
		t.Errorf("dropping the first-segment pin increased useful segments: %d > %d", red2.TotalUseful(), red.TotalUseful())
	}
}

func TestSpeedupShortensSequence(t *testing.T) {
	enc := encodeProfile(t, "s13207", 60, 20)
	base, err := ReduceWithIndex(enc, nil, DefaultOptions(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ReduceWithIndex(enc, nil, DefaultOptions(5, 12))
	if err != nil {
		t.Fatal(err)
	}
	if fast.TSL() >= base.TSL() {
		t.Errorf("k=12 TSL %d not shorter than k=1 TSL %d", fast.TSL(), base.TSL())
	}
	// With k=1 skip mode degenerates to normal mode: the only saving is
	// early termination after the last useful segment.
	for si := range base.Useful {
		if got := base.SeedClocks(si); got > enc.Cfg.WindowLen*enc.Cfg.Geo.Length {
			t.Errorf("seed %d: k=1 clocks %d exceed full window", si, got)
		}
	}
}

func TestGroupOrderSorted(t *testing.T) {
	enc := encodeProfile(t, "s15850", 50, 20)
	red, err := ReduceWithIndex(enc, nil, DefaultOptions(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(red.GroupOrder); i++ {
		if red.UsefulCount(red.GroupOrder[i-1]) > red.UsefulCount(red.GroupOrder[i]) {
			t.Fatalf("group order not ascending at %d", i)
		}
	}
	seen := make(map[int]bool)
	for _, si := range red.GroupOrder {
		if seen[si] {
			t.Fatalf("seed %d appears twice in group order", si)
		}
		seen[si] = true
	}
	if len(seen) != len(enc.Seeds) {
		t.Fatalf("group order covers %d of %d seeds", len(seen), len(enc.Seeds))
	}
}

func TestReduceDeterministic(t *testing.T) {
	enc := encodeProfile(t, "s9234", 40, 16)
	a, err := ReduceWithIndex(enc, nil, DefaultOptions(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReduceWithIndex(enc, nil, DefaultOptions(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.TSL() != b.TSL() || a.TotalUseful() != b.TotalUseful() {
		t.Fatal("Reduce not deterministic")
	}
	for si := range a.Useful {
		for seg := range a.Useful[si] {
			if a.Useful[si][seg] != b.Useful[si][seg] {
				t.Fatalf("useful map differs at (%d,%d)", si, seg)
			}
		}
	}
}

func TestReduceRejectsBadOptions(t *testing.T) {
	enc := encodeProfile(t, "s9234", 10, 8)
	if _, err := ReduceWithIndex(enc, nil, DefaultOptions(0, 4)); err == nil {
		t.Error("S=0 accepted")
	}
	if _, err := ReduceWithIndex(enc, nil, DefaultOptions(9, 4)); err == nil {
		t.Error("S>L accepted")
	}
	if _, err := ReduceWithIndex(enc, nil, DefaultOptions(4, 0)); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSegmentAccounting(t *testing.T) {
	enc := encodeProfile(t, "s13207", 30, 20)
	red, err := ReduceWithIndex(enc, nil, DefaultOptions(6, 4)) // L=20, S=6 → segs 6,6,6,2
	if err != nil {
		t.Fatal(err)
	}
	if red.Segs != 4 {
		t.Fatalf("Segs = %d, want 4", red.Segs)
	}
	if red.segLen(0) != 6 || red.segLen(3) != 2 {
		t.Errorf("segment lengths %d,%d want 6,2", red.segLen(0), red.segLen(3))
	}
	rlen := enc.Cfg.Geo.Length
	for si := range red.Useful {
		// Runs partition the window up to the last useful segment, useful
		// runs cost exactly their states in clocks, useless runs less.
		prevEnd := -1
		for _, run := range red.Runs(si) {
			if run.FirstSeg != prevEnd+1 {
				t.Fatalf("seed %d: run starts at %d after %d", si, run.FirstSeg, prevEnd)
			}
			prevEnd = run.LastSeg
			states := 0
			for seg := run.FirstSeg; seg <= run.LastSeg; seg++ {
				if red.Useful[si][seg] != run.Useful {
					t.Fatalf("seed %d: run [%d,%d] mixes modes", si, run.FirstSeg, run.LastSeg)
				}
				states += red.segLen(seg) * rlen
			}
			if states != run.States {
				t.Errorf("seed %d: run states %d, want %d", si, run.States, states)
			}
			if run.Useful && run.Clocks != run.States {
				t.Errorf("useful run clocks %d != states %d", run.Clocks, run.States)
			}
			if !run.Useful && red.Opt.Speedup > 1 && run.Clocks >= run.States {
				t.Errorf("useless run not shortened: %d clocks for %d states", run.Clocks, run.States)
			}
		}
	}
}

func TestFortuitousEmbeddingsFound(t *testing.T) {
	// Sparse cubes should be embedded in more than one segment somewhere —
	// that is the property §3.2's set B exploits. With CI-scale windows this
	// must occur for at least one cube.
	enc := encodeProfile(t, "s38584", 60, 24) // sparsest profile
	red, err := ReduceWithIndex(enc, nil, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, embs := range red.Embeddings {
		if len(embs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no cube has multiple embeddings; fortuitous-embedding scan looks broken")
	}
}

// naiveIndex is the reference the embedding index is pinned to: it
// regenerates every window by clocking the decompressor and tests every
// cube against every vector with Cube.Matches.
func naiveIndex(enc *encoder.Encoding) [][]VecRef {
	want := make([][]VecRef, enc.Set.Len())
	for si, seed := range enc.Seeds {
		window := encoder.GenerateWindow(enc.Cfg.LFSR, enc.Cfg.PS, enc.Cfg.Geo, seed.Value, enc.Cfg.WindowLen)
		for ci, c := range enc.Set.Cubes {
			for v, vec := range window {
				if c.Matches(vec) {
					want[ci] = append(want[ci], VecRef{Seed: si, Vec: v})
				}
			}
		}
	}
	return want
}

// encodeWithPrivateTables encodes a CI profile through EncodeCtx with a nil
// Config.Tables, on a register of the given form with the standard phase
// shifter, trying design variants until one encodes. Only the phase
// shifter is taken from the separated tables, so the encode builds its own.
func encodeWithPrivateTables(t *testing.T, name string, form lfsr.Form, L int) *encoder.Encoding {
	t.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lfsr.NewStandard(form, p.LFSRSize)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := scan.New(p.Width, p.Chains)
	if err != nil {
		t.Fatal(err)
	}
	set := p.Generate()
	for v := uint64(0); v < 16; v++ {
		sep, err := encoder.NewSeparatedTables(l, geo, L, v)
		if err != nil {
			t.Fatal(err)
		}
		cfg := encoder.Config{LFSR: l, PS: sep.PS(), Geo: geo, WindowLen: L, FillSeed: 1}
		if enc, err := encoder.EncodeCtx(context.Background(), cfg, set); err == nil {
			return enc
		}
	}
	t.Fatalf("%s %v L=%d: no phase-shifter variant encodes", name, form, L)
	return nil
}

// TestScanEmbeddingsExact pins the embedding index to the naive scan on
// the full CI s13207 and s38417 profiles. The window lengths cover
// classical reseeding (L = 1: a block holds up to 64 seeds), blocks that
// pack ⌊64/L⌋ short windows (2, 16, 21, 32), the first length that does
// not (33), partial last words (63, 65, 130) and windows that fill words
// exactly (64). Every packed length must leave a partial last block in
// some encoding. Those sets have 4 to 36 seeds, so an L = 1 encoding of
// 600 s38417-like cubes adds several full 64-seed blocks and a partial
// last one. Two encodings come from EncodeCtx with a nil Config.Tables,
// one of them on a Galois register, so the index reads tables the encode
// built itself.
func TestScanEmbeddingsExact(t *testing.T) {
	type tc struct {
		label string
		enc   *encoder.Encoding
	}
	var cases []tc
	partial := map[int]bool{}
	for _, name := range []string{"s13207", "s38417"} {
		for _, L := range []int{1, 2, 16, 21, 32, 33, 63, 64, 65, 130} {
			enc := encodeProfile(t, name, 0, L)
			if g := 64 / L; L > 1 && g > 1 && len(enc.Seeds)%g != 0 {
				partial[L] = true
			}
			cases = append(cases, tc{fmt.Sprintf("%s L=%d", name, L), enc})
		}
	}
	for _, L := range []int{2, 16, 21, 32} {
		if !partial[L] {
			t.Fatalf("L=%d: every encoding's seed count is a multiple of %d; want a partial last block", L, 64/L)
		}
	}
	many := encodeProfile(t, "s38417", 600, 1)
	if len(many.Seeds) <= 128 || len(many.Seeds)%64 == 0 {
		t.Fatalf("s38417 L=1 with 600 cubes has %d seeds; want more than two blocks, the last partial", len(many.Seeds))
	}
	cases = append(cases,
		tc{"s38417 L=1 600 cubes", many},
		tc{"s9234 Fibonacci L=20 private tables", encodeWithPrivateTables(t, "s9234", lfsr.Fibonacci, 20)},
		tc{"s15850 Galois L=70 private tables", encodeWithPrivateTables(t, "s15850", lfsr.Galois, 70)},
	)
	for _, c := range cases {
		if got, want := ScanEmbeddingsWorkers(c.enc, 0).PerCube, naiveIndex(c.enc); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: embedding index differs from the naive scan", c.label)
		}
	}
}

func BenchmarkScanEmbeddings(b *testing.B) {
	enc := encodeProfile(b, "s38417", 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanEmbeddingsWorkers(enc, 0)
	}
}
