package benchrun

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/experiments"
)

// testGrid is a two-circuit, two-L CI grid small enough to run in every
// test that needs a real harness run.
func testGrid() Grid {
	g := DefaultGrid(benchprofile.ScaleCI)
	g.Circuits = []string{"s9234", "s13207"}
	g.WindowLengths = []int{1, 8}
	g.ATPG = ATPGGrid{Inputs: 24, Outputs: 12, Gates: 60, MaxFan: 3, BacktrackLimit: 20}
	return g
}

// runTestGrid runs the shared small grid once per test binary.
func runTestGrid(t *testing.T) (string, *Snapshot) {
	t.Helper()
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run")
	snapPath := filepath.Join(dir, SnapshotName("test"))
	snap, err := Run(context.Background(), RunOptions{
		Grid: testGrid(), Dir: runDir, SnapshotPath: snapPath, Stamp: "test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dir, snap
}

func TestRunAndSnapshot(t *testing.T) {
	dir, snap := runTestGrid(t)

	if want := 2 * 2; len(snap.Encode) != want {
		t.Fatalf("encode cells = %d, want %d", len(snap.Encode), want)
	}
	if want := 2 * 2; len(snap.ATPG) != want {
		t.Fatalf("atpg cells = %d, want %d", len(snap.ATPG), want)
	}
	if len(snap.Sessions) != 1 || !snap.Sessions[0].Tables {
		t.Fatalf("sessions = %+v, want one table-bearing session", snap.Sessions)
	}

	// The snapshot round-trips through disk and stays valid.
	got, err := ReadSnapshot(filepath.Join(dir, SnapshotName("test")))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot round-trip mismatch:\n got %+v\nwant %+v", got, snap)
	}

	// The run directory holds every CSV plus the log.
	for _, name := range []string{EncodeCSV, ATPGCSV, SessionCSV, Table1CSV, Table2CSV, Table3CSV, Table4CSV, Fig4CSV, "run.log"} {
		if _, err := os.Stat(filepath.Join(dir, "run", name)); err != nil {
			t.Errorf("missing run artefact %s: %v", name, err)
		}
	}

	// Encode counters match a session run directly at the same scale —
	// the harness adds measurement, never behaviour.
	sess := experiments.NewSession(benchprofile.ScaleCI)
	for _, c := range snap.Encode[:2] {
		enc, err := sess.EncodingCtx(context.Background(), c.Circuit, c.L)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc.Seeds) != c.Seeds || enc.TDV() != c.TDV || enc.TSL() != c.TSL || enc.ChecksPerformed != c.Checks {
			t.Errorf("%s: cell %+v does not match direct session encoding (seeds=%d tdv=%d tsl=%d checks=%d)",
				c.Key(), c, len(enc.Seeds), enc.TDV(), enc.TSL(), enc.ChecksPerformed)
		}
	}
}

func TestAnalyzeTable1MatchesSession(t *testing.T) {
	dir, _ := runTestGrid(t)
	rep, err := Analyze(filepath.Join(dir, "run"), benchprofile.ScaleCI)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	sess := experiments.NewSession(benchprofile.ScaleCI)
	want, err := sess.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Table1, want) {
		t.Errorf("analyzer Table 1 differs from Session.Table1():\n got %+v\nwant %+v", rep.Table1, want)
	}
	if md, wantMD := rep.Markdown(), sess.Table1Markdown(want); !strings.Contains(md, wantMD) {
		t.Errorf("analyzer Markdown does not embed the session's Table 1 rendering:\n%s", wantMD)
	}

	tex := rep.LaTeX()
	for _, needle := range []string{"\\begin{tabular}", "s9234", "Classical vs window-based"} {
		if !strings.Contains(tex, needle) {
			t.Errorf("LaTeX output missing %q", needle)
		}
	}
	if len(rep.Table2) == 0 || len(rep.Table3) == 0 || len(rep.Table4) == 0 ||
		len(rep.Fig4Bars) == 0 || len(rep.Fig4Curves) == 0 {
		t.Errorf("analyzer lost tables: %d/%d/%d t2/t3/t4 rows, %d bars, %d curves",
			len(rep.Table2), len(rep.Table3), len(rep.Table4), len(rep.Fig4Bars), len(rep.Fig4Curves))
	}
}

func TestAnalyzeRejectsCorruptCSV(t *testing.T) {
	dir, _ := runTestGrid(t)
	run := filepath.Join(dir, "run")
	p := filepath.Join(run, Table1CSV)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Break the TDV = seeds × n identity on the first data row.
	lines := strings.Split(string(data), "\n")
	f := strings.Split(lines[1], ",")
	f[4] = "999999"
	lines[1] = strings.Join(f, ",")
	if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(run, benchprofile.ScaleCI); err == nil {
		t.Fatal("Analyze accepted a Table 1 row violating TDV = seeds × n")
	}
}

func TestDiffSelfClean(t *testing.T) {
	_, snap := runTestGrid(t)
	regs, err := Diff(snap, snap, DefaultTolerance())
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-diff found regressions: %v", regs)
	}
}

func TestDiffInjectedRegression(t *testing.T) {
	_, snap := runTestGrid(t)

	// A changed deterministic counter is a regression regardless of wall
	// tolerance — even with wall comparison disabled.
	bad := *snap
	bad.Encode = append([]EncodeCell(nil), snap.Encode...)
	bad.Encode[0].Seeds++
	bad.Encode[0].TDV = bad.Encode[0].Seeds * (snap.Encode[0].TDV / snap.Encode[0].Seeds)
	bad.Encode[0].TSL = bad.Encode[0].Seeds * bad.Encode[0].L
	regs, err := Diff(snap, &bad, Tolerance{})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(regs) == 0 {
		t.Fatal("Diff missed an injected seed-count change")
	}
	for _, r := range regs {
		if !r.Exact {
			t.Errorf("counter regression reported as non-exact: %v", r)
		}
	}

	// A missing cell on an unchanged grid is a regression.
	shrunk := *snap
	shrunk.ATPG = snap.ATPG[1:]
	regs, err = Diff(snap, &shrunk, Tolerance{})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(regs) == 0 {
		t.Fatal("Diff missed a dropped ATPG cell")
	}

	// A wall-clock blow-up past the factor is a regression only when wall
	// comparison is enabled.
	slow := *snap
	slow.ATPG = append([]ATPGCell(nil), snap.ATPG...)
	slow.ATPG[0].WallNS = snap.ATPG[0].WallNS*100 + int64(1e12)
	if regs, err = Diff(snap, &slow, Tolerance{WallFactor: 1.5}); err != nil || len(regs) == 0 {
		t.Fatalf("Diff(wall on) = %v, %v; want the injected slowdown", regs, err)
	}
	if regs, err = Diff(snap, &slow, Tolerance{}); err != nil || len(regs) != 0 {
		t.Fatalf("Diff(wall off) = %v, %v; want clean", regs, err)
	}
}

func TestDiffScaleMismatch(t *testing.T) {
	_, snap := runTestGrid(t)
	other := *snap
	other.Scale = "paper"
	if _, err := Diff(snap, &other, Tolerance{}); err == nil {
		t.Fatal("Diff compared snapshots of different scales")
	}
}

// TestDiffGridMismatch checks that snapshots run on different grids are
// reported as not comparable, naming the differing grid field, rather
// than as per-cell counter regressions.
func TestDiffGridMismatch(t *testing.T) {
	_, snap := runTestGrid(t)
	other := *snap
	other.Grid.Circuits = snap.Grid.Circuits[:1]
	other.ATPG = nil
	_, err := Diff(snap, &other, Tolerance{})
	if err == nil || !strings.Contains(err.Error(), "grid circuits") {
		t.Fatalf("Diff of snapshots on different grids: err = %v, want a not-comparable error naming circuits", err)
	}
	other = *snap
	other.Grid.ATPG.Gates++
	if _, err := Diff(snap, &other, Tolerance{}); err == nil || !strings.Contains(err.Error(), "grid atpg") {
		t.Fatalf("Diff of snapshots on different ATPG cores: err = %v, want a not-comparable error naming atpg", err)
	}
}

func TestLoadGridDefaultsAndValidation(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "experiments.json")

	// Minimal file: everything defaulted from scale.
	if err := os.WriteFile(p, []byte(`{"scale":"ci"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGrid(p)
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	def := DefaultGrid(benchprofile.ScaleCI)
	if !reflect.DeepEqual(g, def) {
		t.Errorf("defaulted grid %+v, want %+v", g, def)
	}

	for name, body := range map[string]string{
		"bad scale":     `{"scale":"huge"}`,
		"bad circuit":   `{"circuits":["c17"]}`,
		"bad backtrace": `{"backtraces":["magic"]}`,
		"bad L":         `{"window_lengths":[0]}`,
		"bad schema":    `{"schema_version":99}`,
	} {
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGrid(p); err == nil {
			t.Errorf("LoadGrid accepted %s: %s", name, body)
		}
	}
}

func TestSnapshotValidateRejectsBrokenIdentities(t *testing.T) {
	_, snap := runTestGrid(t)
	bad := *snap
	bad.Encode = append([]EncodeCell(nil), snap.Encode...)
	bad.Encode[0].TSL = bad.Encode[0].TSL + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted TSL ≠ seeds × L")
	}
	bad = *snap
	bad.ATPG = append([]ATPGCell(nil), snap.ATPG...)
	bad.ATPG[0].Coverage = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted coverage > 1")
	}
	bad = *snap
	bad.Encode = snap.Encode[1:]
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a cell count that does not match the grid")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, RunOptions{Grid: testGrid(), Dir: filepath.Join(t.TempDir(), "run")})
	if err == nil {
		t.Fatal("Run ignored a pre-cancelled context")
	}
}
