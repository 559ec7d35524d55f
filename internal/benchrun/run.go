package benchrun

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/experiments"
	"repro/internal/netlist"
)

// RunOptions configures one harness run.
type RunOptions struct {
	// Grid is the (already filled) experiment grid to run.
	Grid Grid
	// Dir is the run directory; Run creates it (and parents) and writes the
	// per-cell CSVs, the paper-table CSVs and run.log into it.
	Dir string
	// SnapshotPath, when non-empty, is where the BENCH_<stamp>.json
	// snapshot is written (normally the repository root).
	SnapshotPath string
	// Stamp tags the run; empty means the current UTC time
	// (20060102T150405Z).
	Stamp string
	// Log receives human-readable progress lines (nil = discard).
	Log io.Writer
}

// runState carries one run's accumulating snapshot and log sinks.
type runState struct {
	snap *Snapshot
	log  io.Writer // tee of RunOptions.Log and <dir>/run.log
}

func (r *runState) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// Run executes the grid and produces the run directory plus the snapshot.
// Cells execute in deterministic order — workers axis outer, repeats next,
// then circuits in grid order — inside one experiments.Session per
// (workers, repeat), so the session's artefact caches are exercised the
// same way every run. The first session additionally regenerates the
// paper's Tables 1–4 and Fig. 4 and writes them as CSVs for the analyzer.
// The context cancels the run between (and, via the session, inside)
// cells.
func Run(ctx context.Context, opt RunOptions) (*Snapshot, error) {
	g := opt.Grid
	if err := g.fill(); err != nil {
		return nil, fmt.Errorf("benchrun: %w", err)
	}
	stamp := opt.Stamp
	if stamp == "" {
		stamp = time.Now().UTC().Format("20060102T150405Z")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(opt.Dir, "run.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	sink := opt.Log
	if sink == nil {
		sink = io.Discard
	}
	st := &runState{
		snap: &Snapshot{
			SchemaVersion: SnapshotSchemaVersion,
			Stamp:         stamp,
			Scale:         g.Scale,
			GoVersion:     runtime.Version(),
			Host:          hostInfo(),
			Grid:          g,
		},
		log: io.MultiWriter(sink, logFile),
	}
	st.logf("run %s: scale=%s circuits=%v Ls=%v backtraces=%v lanewords=%v workers=%v repeats=%d",
		stamp, g.Scale, g.Circuits, g.WindowLengths, g.Backtraces, g.LaneWords, g.Workers, g.Repeats)

	t0 := time.Now()
	first := true
	for _, w := range g.Workers {
		for rep := 0; rep < g.Repeats; rep++ {
			if err := runSession(ctx, st, g, opt.Dir, w, rep, first); err != nil {
				return nil, err
			}
			first = false
		}
	}
	st.snap.TotalWallNS = int64(time.Since(t0))
	st.logf("run %s: done in %v", stamp, time.Duration(st.snap.TotalWallNS))

	if err := writeCellCSVs(opt.Dir, st.snap); err != nil {
		return nil, err
	}
	if opt.SnapshotPath != "" {
		if err := st.snap.WriteFile(opt.SnapshotPath); err != nil {
			return nil, err
		}
		st.logf("snapshot: %s", opt.SnapshotPath)
	} else if err := st.snap.Validate(); err != nil {
		return nil, err
	}
	return st.snap, nil
}

// runSession runs one (workers, repeat) slice of the grid in a fresh
// session: every encode cell, every ATPG cell, and — for the first session
// only — the paper tables.
func runSession(ctx context.Context, st *runState, g Grid, dir string, workers, repeat int, tables bool) error {
	sess := experiments.NewSession(g.BenchScale())
	sess.Workers = workers

	for _, circuit := range g.Circuits {
		for _, L := range g.WindowLengths {
			t0 := time.Now()
			enc, err := sess.EncodingCtx(ctx, circuit, L)
			if err != nil {
				return err
			}
			c := EncodeCell{
				Circuit: circuit, L: L, Workers: workers, Repeat: repeat,
				Seeds: len(enc.Seeds), TDV: enc.TDV(), TSL: enc.TSL(),
				Checks: enc.ChecksPerformed, WallNS: int64(time.Since(t0)),
			}
			st.snap.Encode = append(st.snap.Encode, c)
			st.logf("%s: seeds=%d tdv=%d tsl=%d checks=%d wall=%v",
				c.Key(), c.Seeds, c.TDV, c.TSL, c.Checks, time.Duration(c.WallNS))
		}
	}

	for _, circuit := range g.Circuits {
		core, err := atpgCore(circuit, g)
		if err != nil {
			return err
		}
		for _, bt := range g.Backtraces {
			strat, _ := atpg.ParseBacktrace(bt)
			for _, lw := range g.LaneWords {
				t0 := time.Now()
				u, res, err := sess.ATPGOptsCtx(ctx, core, atpg.Options{
					FaultDrop:      true,
					FillSeed:       1,
					BacktrackLimit: g.ATPG.BacktrackLimit,
					Backtrace:      strat,
					LaneWords:      lw,
				})
				if err != nil {
					return err
				}
				c := ATPGCell{
					Circuit: circuit, Backtrace: bt, LaneWords: lw, Workers: workers, Repeat: repeat,
					Faults: len(u.Faults), Detected: res.Detected, Untestable: res.Untestable,
					Aborted: res.Aborted, Backtracks: res.Backtracks,
					Cubes: res.Cubes.Len(), Coverage: res.Coverage,
					WallNS: int64(time.Since(t0)),
				}
				st.snap.ATPG = append(st.snap.ATPG, c)
				st.logf("%s: faults=%d detected=%d untestable=%d aborted=%d backtracks=%d coverage=%.4f wall=%v",
					c.Key(), c.Faults, c.Detected, c.Untestable, c.Aborted, c.Backtracks, c.Coverage, time.Duration(c.WallNS))
			}
		}
	}

	if tables {
		if err := runTables(ctx, st, sess, dir); err != nil {
			return err
		}
	}

	stats := sess.Stats()
	builds := stats.SetBuilds + stats.EncodingBuilds + stats.IndexBuilds + stats.TableBuilds
	sc := SessionCell{
		Workers: workers, Repeat: repeat, Tables: tables,
		SetBuilds: stats.SetBuilds, EncodingBuilds: stats.EncodingBuilds,
		IndexBuilds: stats.IndexBuilds, TableBuilds: stats.TableBuilds,
		Hits: stats.Hits, Evictions: stats.Evictions,
		SetBuildNS: stats.SetBuildNS, EncodingBuildNS: stats.EncodingBuildNS,
		IndexBuildNS: stats.IndexBuildNS, TableBuildNS: stats.TableBuildNS,
	}
	if total := builds + stats.Hits; total > 0 {
		sc.HitRate = float64(stats.Hits) / float64(total)
	}
	st.snap.Sessions = append(st.snap.Sessions, sc)
	st.logf("%s: builds=%d hits=%d hit_rate=%.3f", sc.Key(), builds, sc.Hits, sc.HitRate)
	return nil
}

// atpgCore generates the deterministic gate-level core a circuit's ATPG
// cells run on, seeded from the circuit's benchprofile seed so every run
// of the same grid ATPGs the same netlist.
func atpgCore(circuit string, g Grid) (*netlist.Netlist, error) {
	p, err := benchprofile.ByName(circuit, g.BenchScale())
	if err != nil {
		return nil, err
	}
	return netlist.Random(netlist.RandomConfig{
		Inputs:  g.ATPG.Inputs,
		Outputs: g.ATPG.Outputs,
		Gates:   g.ATPG.Gates,
		MaxFan:  g.ATPG.MaxFan,
		Seed:    p.Seed,
	})
}

// runTables regenerates the paper's Tables 1–4 and Fig. 4 in the given
// session and writes them as CSVs into the run directory (the analyzer
// renders Markdown and LaTeX from these).
func runTables(ctx context.Context, st *runState, sess *experiments.Session, dir string) error {
	t0 := time.Now()
	t1, err := sess.Table1(ctx)
	if err != nil {
		return err
	}
	t2, err := sess.Table2(ctx)
	if err != nil {
		return err
	}
	t3, err := sess.Table3(ctx)
	if err != nil {
		return err
	}
	t4, err := sess.Table4(ctx)
	if err != nil {
		return err
	}
	bars, curves, err := sess.Fig4(ctx)
	if err != nil {
		return err
	}
	st.logf("tables: regenerated Tables 1-4 and Fig. 4 in %v", time.Since(t0))
	return writeTableCSVs(dir, t1, t2, t3, t4, bars, curves)
}
