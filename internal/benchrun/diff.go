package benchrun

import (
	"fmt"
	"reflect"
	"strings"
)

// Tolerance tunes what Diff counts as a regression. Counters are always
// compared exactly — the pipeline's determinism contract makes any
// difference a real behaviour change — so Tolerance only governs the
// wall-clock fields.
type Tolerance struct {
	// WallFactor is the allowed relative slowdown of a wall-clock metric:
	// new > old × WallFactor is a regression. ≤ 0 disables wall-clock
	// comparison entirely (the right setting when the two snapshots come
	// from different machines, e.g. a laptop-produced reference diffed in
	// CI).
	WallFactor float64
	// MinWallNS ignores wall-clock metrics whose old value is below this
	// floor, so timer noise on sub-millisecond cells cannot trip the
	// factor check.
	MinWallNS int64
}

// DefaultTolerance is Diff's stock setting: counters exact, wall clock
// allowed to slow down 1.5× on cells that previously took ≥ 50ms.
func DefaultTolerance() Tolerance {
	return Tolerance{WallFactor: 1.5, MinWallNS: 50_000_000}
}

// Regression is one metric that moved the wrong way between snapshots.
type Regression struct {
	// Key names the cell ("encode s9234 L=1 workers=1 repeat=0").
	Key string
	// Metric names the field within the cell.
	Metric string
	// Old and New are the compared values (0/1 for booleans).
	Old, New float64
	// Exact reports whether this was an exact-compare counter (any change
	// flags) rather than a thresholded wall-clock metric.
	Exact bool
}

// String renders the regression as one human-readable line.
func (r Regression) String() string {
	if r.Exact {
		return fmt.Sprintf("%s: %s changed %v -> %v (deterministic counter; exact match required)",
			r.Key, r.Metric, r.Old, r.New)
	}
	return fmt.Sprintf("%s: %s regressed %v -> %v", r.Key, r.Metric, r.Old, r.New)
}

// Diff compares a new snapshot against an older reference and returns
// every regression: a deterministic counter that changed at all, a
// wall-clock metric that slowed past the tolerance, or a reference cell
// missing from the new snapshot. An error is returned when the snapshots
// are not comparable at all: a schema, scale or grid mismatch, the last
// naming the first grid field that differs.
func Diff(old, new *Snapshot, tol Tolerance) ([]Regression, error) {
	if old.SchemaVersion != new.SchemaVersion {
		return nil, fmt.Errorf("benchrun: schema_version %d vs %d: not comparable", old.SchemaVersion, new.SchemaVersion)
	}
	if old.Scale != new.Scale {
		return nil, fmt.Errorf("benchrun: scale %q vs %q: not comparable", old.Scale, new.Scale)
	}
	if err := gridMismatch(old.Grid, new.Grid); err != nil {
		return nil, err
	}
	var regs []Regression
	exact := func(key, metric string, o, n float64) {
		if o != n {
			regs = append(regs, Regression{Key: key, Metric: metric, Old: o, New: n, Exact: true})
		}
	}
	wall := func(key, metric string, o, n int64) {
		if tol.WallFactor > 0 && o >= tol.MinWallNS && float64(n) > float64(o)*tol.WallFactor {
			regs = append(regs, Regression{Key: key, Metric: metric, Old: float64(o), New: float64(n)})
		}
	}

	newEnc := make(map[string]EncodeCell, len(new.Encode))
	for _, c := range new.Encode {
		newEnc[c.Key()] = c
	}
	for _, o := range old.Encode {
		n, ok := newEnc[o.Key()]
		if !ok {
			regs = append(regs, Regression{Key: o.Key(), Metric: "cell", Old: 1, New: 0, Exact: true})
			continue
		}
		exact(o.Key(), "seeds", float64(o.Seeds), float64(n.Seeds))
		exact(o.Key(), "tdv", float64(o.TDV), float64(n.TDV))
		exact(o.Key(), "tsl", float64(o.TSL), float64(n.TSL))
		exact(o.Key(), "checks", float64(o.Checks), float64(n.Checks))
		wall(o.Key(), "wall_ns", o.WallNS, n.WallNS)
	}

	newATPG := make(map[string]ATPGCell, len(new.ATPG))
	for _, c := range new.ATPG {
		newATPG[c.Key()] = c
	}
	for _, o := range old.ATPG {
		n, ok := newATPG[o.Key()]
		if !ok {
			regs = append(regs, Regression{Key: o.Key(), Metric: "cell", Old: 1, New: 0, Exact: true})
			continue
		}
		exact(o.Key(), "faults", float64(o.Faults), float64(n.Faults))
		exact(o.Key(), "detected", float64(o.Detected), float64(n.Detected))
		exact(o.Key(), "untestable", float64(o.Untestable), float64(n.Untestable))
		exact(o.Key(), "aborted", float64(o.Aborted), float64(n.Aborted))
		exact(o.Key(), "backtracks", float64(o.Backtracks), float64(n.Backtracks))
		exact(o.Key(), "cubes", float64(o.Cubes), float64(n.Cubes))
		exact(o.Key(), "coverage", o.Coverage, n.Coverage)
		wall(o.Key(), "wall_ns", o.WallNS, n.WallNS)
	}

	newSess := make(map[string]SessionCell, len(new.Sessions))
	for _, c := range new.Sessions {
		newSess[c.Key()] = c
	}
	for _, o := range old.Sessions {
		n, ok := newSess[o.Key()]
		if !ok {
			regs = append(regs, Regression{Key: o.Key(), Metric: "cell", Old: 1, New: 0, Exact: true})
			continue
		}
		if o.Tables != n.Tables {
			// The table sweep moved to a different session; its request
			// counters are incomparable, so skip this cell.
			continue
		}
		exact(o.Key(), "set_builds", float64(o.SetBuilds), float64(n.SetBuilds))
		exact(o.Key(), "encoding_builds", float64(o.EncodingBuilds), float64(n.EncodingBuilds))
		exact(o.Key(), "index_builds", float64(o.IndexBuilds), float64(n.IndexBuilds))
		exact(o.Key(), "table_builds", float64(o.TableBuilds), float64(n.TableBuilds))
		exact(o.Key(), "hits", float64(o.Hits), float64(n.Hits))
		exact(o.Key(), "evictions", float64(o.Evictions), float64(n.Evictions))
		wall(o.Key(), "set_build_ns", o.SetBuildNS, n.SetBuildNS)
		wall(o.Key(), "encoding_build_ns", o.EncodingBuildNS, n.EncodingBuildNS)
		wall(o.Key(), "index_build_ns", o.IndexBuildNS, n.IndexBuildNS)
		wall(o.Key(), "table_build_ns", o.TableBuildNS, n.TableBuildNS)
	}

	wall("run", "total_wall_ns", old.TotalWallNS, new.TotalWallNS)
	return regs, nil
}

// gridMismatch names the first field, by its experiments.json key, in
// which two snapshots' grids differ: their cells were run on different
// grids, so a cell present in one only says nothing about a regression.
func gridMismatch(old, new Grid) error {
	o, n := reflect.ValueOf(old), reflect.ValueOf(new)
	for i := 0; i < o.NumField(); i++ {
		if of, nf := o.Field(i).Interface(), n.Field(i).Interface(); !reflect.DeepEqual(of, nf) {
			key, _, _ := strings.Cut(o.Type().Field(i).Tag.Get("json"), ",")
			return fmt.Errorf("benchrun: grid %s %v vs %v: not comparable", key, of, nf)
		}
	}
	return nil
}

// DiffReport renders regressions as a human-readable block, one line per
// regression, empty string when clean.
func DiffReport(regs []Regression) string {
	if len(regs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d regression(s):\n", len(regs))
	for _, r := range regs {
		b.WriteString("  " + r.String() + "\n")
	}
	return b.String()
}
