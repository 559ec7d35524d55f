package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/litdata"
	"repro/internal/netlist"
)

func ciSession() *Session { return NewSession(benchprofile.ScaleCI) }

func TestTable1Trends(t *testing.T) {
	s := ciSession()
	rows, err := s.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		// The paper's Table 1 story: TDV falls and TSL rises with L. Dense,
		// rank-bound sets (s38417) gain almost nothing from windows, so a
		// couple of seeds of phase-shifter-variant noise is tolerated.
		for i := 1; i < len(row.Cells); i++ {
			slack := 3 * row.LFSRSize
			if row.Cells[i].TDV > row.Cells[i-1].TDV+slack {
				t.Errorf("%s: TDV rose from L=%d (%d) to L=%d (%d)", row.Circuit,
					row.Cells[i-1].L, row.Cells[i-1].TDV, row.Cells[i].L, row.Cells[i].TDV)
			}
			if row.Cells[i].TSL <= row.Cells[i-1].TSL {
				t.Errorf("%s: TSL did not grow with L", row.Circuit)
			}
		}
	}
	md := s.Table1Markdown(rows)
	if !strings.Contains(md, "s13207") {
		t.Error("markdown missing circuit name")
	}
}

func TestTable2Improvements(t *testing.T) {
	s := ciSession()
	rows, err := s.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, c := range row.Cells {
			if c.Prop >= c.Orig {
				t.Errorf("%s L=%d: no improvement (%d vs %d)", row.Circuit, c.L, c.Prop, c.Orig)
			}
			if c.Impr <= 0 || c.Impr >= 1 {
				t.Errorf("%s L=%d: improvement %.2f out of range", row.Circuit, c.L, c.Impr)
			}
		}
		// Larger windows leave more useless vectors to skip, so the
		// improvement should not decrease with L.
		last := row.Cells[len(row.Cells)-1]
		first := row.Cells[0]
		if last.Impr < first.Impr-0.05 {
			t.Errorf("%s: improvement fell with L: %.2f -> %.2f", row.Circuit, first.Impr, last.Impr)
		}
	}
	_ = s.Table2Markdown(rows)
}

func TestFig4Trends(t *testing.T) {
	s := ciSession()
	bars, curves, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Improvement grows (weakly) with k within every series.
	for _, serie := range append(append([]Fig4Series{}, bars...), curves...) {
		first := serie.Points[0].Impr
		last := serie.Points[len(serie.Points)-1].Impr
		if last < first {
			t.Errorf("%s: improvement fell with k: %.2f -> %.2f", serie.Label, first, last)
		}
	}
	// Smaller S gives at least as good improvement at max k (paper's bars).
	if len(bars) >= 2 {
		smallest := bars[0].Points[len(bars[0].Points)-1].Impr
		largest := bars[len(bars)-1].Points[len(bars[len(bars)-1].Points)-1].Impr
		if smallest+0.02 < largest {
			t.Errorf("smallest S (%.2f) clearly worse than largest S (%.2f) at max k", smallest, largest)
		}
	}
	// Larger L gives better improvement at max k (paper's curves).
	if len(curves) >= 2 {
		first := curves[0].Points[len(curves[0].Points)-1].Impr
		last := curves[len(curves)-1].Points[len(curves[len(curves)-1].Points)-1].Impr
		if last < first {
			t.Errorf("improvement did not grow with L: %.2f -> %.2f", first, last)
		}
	}
	_ = s.Fig4Markdown(bars, curves)
}

func TestTable3Shape(t *testing.T) {
	s := ciSession()
	rows, err := s.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PropTSL <= 0 || r.PropTDV <= 0 {
			t.Errorf("%s: non-positive prop numbers", r.Circuit)
		}
		// The paper's headline: the proposed TSL beats [22]'s by a lot
		// ([22]'s sequences are hundreds of thousands of vectors).
		if float64(r.PropTSL) > 0.5*float64(r.Lit22.TSL) {
			t.Errorf("%s: prop TSL %d not clearly below [22]'s %d", r.Circuit, r.PropTSL, r.Lit22.TSL)
		}
	}
	_ = s.Table3Markdown(rows)
}

func TestTable4Shape(t *testing.T) {
	s := ciSession()
	rows, err := s.Table4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Embedding stores less data than classical reseeding…
		if r.PropTDV > r.ClassicalTDV {
			t.Errorf("%s: prop TDV %d above classical %d", r.Circuit, r.PropTDV, r.ClassicalTDV)
		}
		// …at the cost of a longer sequence.
		if r.PropTSL < r.ClassicalTSL {
			t.Errorf("%s: prop TSL %d below classical %d (suspicious)", r.Circuit, r.PropTSL, r.ClassicalTSL)
		}
	}
	_ = s.Table4Markdown(rows)
}

func TestHWOverheadAndSoC(t *testing.T) {
	s := ciSession()
	rep, err := s.HWOverhead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SkipSweep) == 0 {
		t.Fatal("empty skip sweep")
	}
	for _, p := range rep.SkipSweep {
		if p.CSEGE > p.NaiveGE {
			t.Errorf("k=%d: CSE worse than naive", p.K)
		}
	}
	if rep.ModeSelectMin <= 0 || rep.ModeSelectMax < rep.ModeSelectMin {
		t.Errorf("mode select range [%f,%f] invalid", rep.ModeSelectMin, rep.ModeSelectMax)
	}
	_ = s.HWMarkdown(rep)

	soc, err := s.SoC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(soc.Cores) != 5 {
		t.Fatalf("SoC has %d cores", len(soc.Cores))
	}
	if soc.AreaPercent <= 0 || soc.AreaPercent > 50 {
		t.Errorf("SoC area percent %.1f implausible", soc.AreaPercent)
	}
	_ = s.SoCMarkdown(soc)
}

func TestSessionCaching(t *testing.T) {
	s := ciSession()
	a, err := s.EncodingCtx(context.Background(), "s9234", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EncodingCtx(context.Background(), "s9234", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("encoding not cached")
	}
	ia, _ := s.IndexCtx(context.Background(), "s9234", 8)
	ib, _ := s.IndexCtx(context.Background(), "s9234", 8)
	if ia != ib {
		t.Error("index not cached")
	}
}

// TestSessionEncTableBuilds renders every CI-scale table and figure
// and checks Stats().EncTableBuilds against its definition: the sum of
// variant+1 over the session's encodings, each encoding's variant taken
// from a fresh EncodeAutoCtx of the same (circuit, L).
func TestSessionEncTableBuilds(t *testing.T) {
	ctx := context.Background()
	s := ciSession()
	if _, err := s.Table1(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table2(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Fig4(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table3(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table4(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HWOverhead(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SoC(ctx); err != nil {
		t.Fatal(err)
	}
	var encodings, want int64
	for _, name := range benchprofile.Names() {
		p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
		if err != nil {
			t.Fatal(err)
		}
		for L := 1; L <= 64; L++ {
			s.mu.Lock()
			_, ok := s.encs.Get(encKey{name, L})
			s.mu.Unlock()
			if !ok {
				continue
			}
			encodings++
			_, v, err := encoder.EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, L, p.Generate(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			want += int64(v) + 1
		}
	}
	st := s.Stats()
	if encodings != st.EncodingBuilds {
		t.Fatalf("found %d memoized encodings, session built %d", encodings, st.EncodingBuilds)
	}
	if want <= encodings {
		t.Fatalf("every encoding settled on variant 0; the sum %d does not test the variant count", want)
	}
	if st.EncTableBuilds != want {
		t.Fatalf("EncTableBuilds = %d, want %d (variant+1 over %d encodings)", st.EncTableBuilds, want, encodings)
	}
}

func TestSessionATPGWorkersIdentical(t *testing.T) {
	core, err := netlist.Random(netlist.RandomConfig{Inputs: 20, Outputs: 8, Gates: 100, MaxFan: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial := ciSession()
	serial.Workers = 1
	_, want, err := serial.ATPGOptsCtx(context.Background(), core, atpg.Options{FaultDrop: true, FillSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if want.Cubes.Len() == 0 {
		t.Fatal("no cubes generated")
	}
	par := ciSession()
	par.Workers = 3
	_, got, err := par.ATPGOptsCtx(context.Background(), core, atpg.Options{FaultDrop: true, FillSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cubes.Len() != want.Cubes.Len() || got.Coverage != want.Coverage ||
		len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("workers=3: %d cubes / %d patterns / cov %v, serial %d / %d / %v",
			got.Cubes.Len(), len(got.Patterns), got.Coverage,
			want.Cubes.Len(), len(want.Patterns), want.Coverage)
	}
	for i := range want.Cubes.Cubes {
		if got.Cubes.Cubes[i].String() != want.Cubes.Cubes[i].String() {
			t.Fatalf("cube %d differs between worker counts", i)
		}
	}
}

func TestLitdataConsistency(t *testing.T) {
	// The paper's own tables must be mutually consistent: Table 4's
	// classical column equals Table 1's L=1 column, and the prop column
	// equals Table 2's L=200 Prop with Table 1's L=200 TDV.
	for _, c := range litdata.Circuits {
		t1 := litdata.Table1[c][1]
		t4 := litdata.Table4Prop[c]
		if t4.ClassicalTDV != t1.TDV || t4.ClassicalTSL != t1.TSL {
			t.Errorf("%s: Table 4 classical (%d,%d) != Table 1 L=1 (%d,%d)", c, t4.ClassicalTDV, t4.ClassicalTSL, t1.TDV, t1.TSL)
		}
		t2 := litdata.Table2[c][200]
		if t4.PropTSL != t2.Prop {
			t.Errorf("%s: Table 4 prop TSL %d != Table 2 L=200 prop %d", c, t4.PropTSL, t2.Prop)
		}
		t1200 := litdata.Table1[c][200]
		if t4.PropTDV != t1200.TDV {
			t.Errorf("%s: Table 4 prop TDV %d != Table 1 L=200 TDV %d", c, t4.PropTDV, t1200.TDV)
		}
		if t2.Orig != t1200.TSL {
			t.Errorf("%s: Table 2 orig %d != Table 1 L=200 TSL %d", c, t2.Orig, t1200.TSL)
		}
	}
}

// TestSessionTablesRebuiltAfterMutation guards the Tables cache's
// staleness handling: mutating a core between ATPG runs must transparently
// rebuild the cached tables instead of failing RunAll's validity check.
func TestSessionTablesRebuiltAfterMutation(t *testing.T) {
	s := ciSession()
	core, err := netlist.Random(netlist.RandomConfig{Inputs: 12, Outputs: 4, Gates: 40, MaxFan: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.TablesCtx(context.Background(), core)
	if err != nil {
		t.Fatal(err)
	}
	if t2, err := s.TablesCtx(context.Background(), core); err != nil || t2 != t1 {
		t.Fatalf("unmutated core: cached tables not reused (%p vs %p, err %v)", t2, t1, err)
	}
	if _, err := core.AddGate("extra", netlist.And, "pi0", "pi1"); err != nil {
		t.Fatal(err)
	}
	if err := core.MarkOutput("extra"); err != nil {
		t.Fatal(err)
	}
	t3, err := s.TablesCtx(context.Background(), core)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 || !t3.Valid(core) {
		t.Fatal("mutated core: stale tables served from the cache")
	}
	if _, _, err := s.ATPGOptsCtx(context.Background(), core, atpg.Options{FaultDrop: true, FillSeed: 1}); err != nil {
		t.Fatalf("ATPG after mutation: %v", err)
	}
}

// cellCtx is a context that cancels itself once the session starts
// building its nth encoding: the tables' parallelFor and the encoder both
// poll Err, so a table sweep run under it completes its first n−1
// encodings' cells and is stopped inside the next, deterministically.
type cellCtx struct {
	context.Context
	cancel context.CancelFunc
	s      *Session
	n      int64
}

func (c cellCtx) Err() error {
	if c.s.Stats().EncodingBuilds >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSweepCancelledMidway cancels Table2 and Fig4 after their first
// cell: the call must fail with an error wrapping context.Canceled, and a
// second call on the same session with a live context must return rows
// deep-equal to a fresh session's — the cancelled build poisons nothing.
func TestSweepCancelledMidway(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(context.Context, *Session) (any, error)
	}{
		{"Table2", func(ctx context.Context, s *Session) (any, error) { return s.Table2(ctx) }},
		{"Fig4", func(ctx context.Context, s *Session) (any, error) {
			bars, curves, err := s.Fig4(ctx)
			return [][]Fig4Series{bars, curves}, err
		}},
	}
	for _, d := range sweeps {
		t.Run(d.name, func(t *testing.T) {
			s := ciSession()
			s.Workers = 1 // cells run in order, so "the first cell" is well defined
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := cellCtx{Context: parent, cancel: cancel, s: s, n: 2}
			if _, err := d.run(ctx, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled after the first cell: err = %v, want context.Canceled", err)
			}
			// The first cell's index was built; the second cell's encode
			// was stopped by the engines, so its index never was.
			if st := s.Stats(); st.IndexBuilds != 1 {
				t.Fatalf("IndexBuilds = %d after the cancel, want 1 (stats %+v)", st.IndexBuilds, st)
			}
			// A poisoned memo slot would make the rerun spin; the deadline
			// turns that into a failure instead of a hang.
			live, stop := context.WithTimeout(context.Background(), time.Minute)
			defer stop()
			got, err := d.run(live, s)
			if err != nil {
				t.Fatalf("rerun on the cancelled session: %v", err)
			}
			want, err := d.run(context.Background(), ciSession())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rerun after cancel differs from a fresh session:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
