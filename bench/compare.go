package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json --compare needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet holds metric values by workload and metric, one per run.
type runSet map[string]map[string][]float64

// loadRuns reads the result files a glob names. A directory stands for the
// <workload>.json files in it.
func loadRuns(glob string) (runSet, error) {
	matches, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.IsDir() {
			inner, _ := filepath.Glob(filepath.Join(m, "*.json"))
			files = append(files, inner...)
		} else {
			files = append(files, m)
		}
	}
	rs := make(runSet)
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rs[r.Workload] == nil {
			rs[r.Workload] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			rs[r.Workload][k] = append(rs[r.Workload][k], v)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	return rs, nil
}

// compareRuns prints, for every workload and metric, each side's median and
// quartiles, and a verdict: for end-to-end metrics against the metric's
// bound, for exact per-layer counters against bound 0.
func compareRuns(w io.Writer, specPath, globA, globB string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(globA)
	if err != nil {
		return err
	}
	b, err := loadRuns(globB)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	for wl := range b {
		if a[wl] == nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	exact := make(map[string]bool)
	for _, d := range perLayer {
		exact[d.name] = d.exact
	}
	row := func(wl string, m specMetric, bounded bool) {
		xa, xb := a[wl][m.Name], b[wl][m.Name]
		if len(xa) == 0 && len(xb) == 0 {
			return
		}
		bound, verdict := "-", "-"
		if bounded {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			verdict = judge(xa, xb, m.Bound, m.Better == "higher")
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl, m.Name, m.Unit, summary(xa), summary(xb), change(xa, xb), bound, verdict)
	}
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			row(wl, m, true)
		}
		for _, m := range sp.PerLayer {
			m.Bound = 0
			row(wl, m, exact[m.Name])
		}
	}
	return tw.Flush()
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

func change(a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "-"
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		if mb == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

// judge compares the change's runs b with the parent's runs a for one
// end-to-end metric: "worse" when b's median is worse than a's by more
// than the bound, "unresolved" when either side's spread is wider than
// the bound (unless every run of b beats every run of a), "ok" otherwise.
func judge(a, b []float64, bound float64, higherBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	// worse is how much worse x is than ref, as a share of ref.
	worse := func(x, ref float64) float64 {
		d := x - ref
		if higherBetter {
			d = -d
		}
		if ref == 0 {
			return d
		}
		return d / math.Abs(ref)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if worse(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if worse(mb, ma) > bound {
		return "worse"
	}
	return "ok"
}
