package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// tinyRun runs one workload in-process at smoke-test sizes.
func tinyRun(t *testing.T, name string, seed uint64, trace bool, tamper func(any)) *result {
	t.Helper()
	res, err := run(context.Background(), options{
		workload: name, seed: seed, budget: 50 * time.Millisecond,
		trace: trace, tiny: true, tamper: tamper,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return res
}

// TestCatalogMatchesSpec keeps the metric tables in step with
// BENCHMARK.json: same names, same order, same units.
func TestCatalogMatchesSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec []specMetric
		defs []metricDef
	}{{sp.EndToEnd, endToEnd}, {sp.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.spec), len(c.defs))
		}
		for i, m := range c.spec {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// checkLine checks the result line a run prints: exactly the metrics of
// defs, each with its unit and a finite value.
func checkLine(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	b, err := json.Marshal(r.line())
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v, want a value in %s", r.Workload, d.name, m, d.unit)
		}
	}
}

// checkTrace checks a traced run's spans: children nest in their parent
// and share its op, self times are never negative, and the self times of
// one op's spans add up to no more than the op's root span.
func checkTrace(t *testing.T, r *result) {
	t.Helper()
	if len(r.spans) == 0 {
		t.Fatalf("%s: traced run recorded no spans", r.Workload)
	}
	self := selfTimes(r.spans)
	rootDur := make(map[int]time.Duration)
	sum := make(map[int]time.Duration)
	for i, s := range r.spans {
		if s.end < s.start {
			t.Errorf("%s: span %s ends before it starts", r.Workload, s.name)
		}
		if self[i] < 0 {
			t.Errorf("%s: span %s has self time %v", r.Workload, s.name, self[i])
		}
		if s.parent >= 0 {
			p := r.spans[s.parent]
			if s.start < p.start || s.end > p.end || s.op != p.op {
				t.Errorf("%s: span %s [%v, %v] op %d not inside parent %s [%v, %v] op %d",
					r.Workload, s.name, s.start, s.end, s.op, p.name, p.start, p.end, p.op)
			}
		} else if s.op >= 0 {
			rootDur[s.op] = s.end - s.start
		}
		if s.op >= 0 {
			sum[s.op] += self[i]
		}
	}
	if len(rootDur) == 0 {
		t.Errorf("%s: no op root spans", r.Workload)
	}
	for op, d := range rootDur {
		if sum[op] > d {
			t.Errorf("%s: op %d self times sum to %v, root span is %v", r.Workload, op, sum[op], d)
		}
	}
	if len(r.LayerSelfMS) == 0 {
		t.Errorf("%s: no layer self times", r.Workload)
	}
}

// timedCalls lists, per workload, per-layer times a traced run must write
// to its result file: they catch a span whose name no longer matches its
// metric.
var timedCalls = map[string][]string{
	"atpg-paper":     {"netlist.random_ms", "faultsim.universe_ms", "atpg.tables_ms", "atpg.runall_ms"},
	"grade-random":   {"netlist.random_ms", "faultsim.universe_ms", "faultsim.coverage_ms"},
	"compress-paper": {"benchprofile.generate_ms", "encoder.encode_ms", "encoder.table_build_ms", "stateskip.index_ms", "stateskip.reduce_ms", "decompressor.run_ms"},
	"service-mix":    {"server.submit_p50_ms", "server.fetch_p50_ms", "server.queue_wait_p50_ms"},
}

// TestWorkloadsSmoke runs every workload at smoke-test sizes: every
// metric is emitted with its unit, no op fails, the exact counters repeat
// for the same seed and move with another seed, and the trace is sound.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 0, false, nil)
			b := tinyRun(t, name, 0, true, nil)
			c := tinyRun(t, name, 1, false, nil)
			checkLine(t, a, endToEnd)
			checkLine(t, b, perLayer)
			checkLine(t, c, endToEnd)
			for _, m := range timedCalls[name] {
				if b.Metrics[m] <= 0 {
					t.Errorf("traced run: %s = %v, want a time", m, b.Metrics[m])
				}
			}
			moved := false
			for _, d := range perLayer {
				if !d.exact {
					continue
				}
				if a.Metrics[d.name] != b.Metrics[d.name] {
					t.Errorf("%s: seed 0 gave %v then %v", d.name, a.Metrics[d.name], b.Metrics[d.name])
				}
				if a.Metrics[d.name] != c.Metrics[d.name] {
					moved = true
				}
			}
			// The service's seed draws its job stream (TestServiceStream),
			// not the requests its counters sum over.
			if !moved && name != "service-mix" {
				t.Error("no exact counter differs between seed 0 and seed 1")
			}
			checkTrace(t, b)
		})
	}
}

// TestServiceStream checks the service's job stream: a function of the
// seed alone, different for another seed, and exactly five encode, three
// ATPG and two coverage jobs in every block of ten.
func TestServiceStream(t *testing.T) {
	stream := func(seed uint64) []int {
		s := &service{seed: seed, reqs: serviceRequests(false), byKind: make(map[server.Kind][]int)}
		for i, r := range s.reqs {
			s.byKind[r.Kind] = append(s.byKind[r.Kind], i)
		}
		out := make([]int, 1000)
		for k := range out {
			out[k] = s.pick(int64(k))
		}
		return out
	}
	a, b, c := stream(0), stream(0), stream(1)
	if !slices.Equal(a, b) {
		t.Error("seed 0 drew two different streams")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 0 and 1 drew the same stream")
	}
	reqs := serviceRequests(false)
	for start := 0; start < len(a); start += 10 {
		n := make(map[server.Kind]int)
		for _, di := range a[start : start+10] {
			n[reqs[di].Kind]++
		}
		if n[server.KindEncode] != 5 || n[server.KindATPG] != 3 || n[server.KindCoverage] != 2 {
			t.Fatalf("jobs %d–%d: %v, want 5 encode, 3 atpg, 2 coverage", start, start+9, n)
		}
	}
}

// TestCorruptOutputFails corrupts one output of each workload before its
// check and expects the run to count failed ops.
func TestCorruptOutputFails(t *testing.T) {
	tamper := map[string]func(any){
		"atpg-paper": func(v any) { v.(*atpgOut).res.Detected += 1000 },
		"grade-random": func(v any) {
			d := v.(*gradeOut).detected
			for i := range d {
				d[i] = !d[i]
			}
		},
		"compress-paper": func(v any) { v.(*chainOut).enc.Seeds[0].Value.FlipBit(0) },
		"service-mix": func(v any) {
			if r := v.(*server.Result); r.Encode != nil {
				r.Encode.Seeds++
			} else if r.ATPG != nil {
				r.ATPG.Backtracks++
			} else {
				r.Coverage.Detected--
			}
		},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := tinyRun(t, name, 0, false, tamper[name])
			if r.Correct || r.Failed == 0 {
				t.Errorf("corrupted outputs passed: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
		})
	}
}

// TestCLIRejectsBadArguments covers the exit codes of the command line.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "atpg-paper", "--trace", "2"},
		{"--compare", "only-one"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 10}, 0.99, 9.76},
		{[]float64{1, 2, 3, 4, 10}, 1, 10},
	} {
		if got := quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 99, 100, 100}, false, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "worse"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "ok"},
		{"noisy", []float64{60, 150, 100, 70, 140}, false, "unresolved"},
		{"noisy but always better", []float64{10, 50, 30, 20, 45}, false, "ok"},
	} {
		if got := judge(parent, c.change, 0.1, c.higher); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRuns checks the verdicts --compare prints: an end-to-end
// metric against its bound, an exact counter against bound 0 in its
// better direction, and no verdict for a per-layer time.
func TestCompareRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, m map[string]float64) {
		b, err := json.Marshal(result{Workload: "atpg-paper", Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		d := filepath.Join(dir, side, string(rune('a'+i)))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "atpg-paper.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{100, 101, 99} {
		write("A", i, map[string]float64{"throughput": v, "atpg.detected": 5000, "atpg.backtracks": 700, "encoder.seeds": 90, "go.gc_pause_ms": v})
		// Faster ATPG bought with fewer detected faults.
		write("B", i, map[string]float64{"throughput": v * 0.7, "atpg.detected": 4999, "atpg.backtracks": 600, "encoder.seeds": 90, "go.gc_pause_ms": 2 * v})
	}
	var out bytes.Buffer
	if err := compareRuns(&out, "../BENCHMARK.json", filepath.Join(dir, "A", "*"), filepath.Join(dir, "B", "*")); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string)
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 2 {
			rows[f[1]] = f
		}
	}
	for _, c := range []struct{ metric, change, verdict string }{
		{"throughput", "-30.0%", "worse"},
		{"atpg.detected", "-0.0%", "worse"},
		{"atpg.backtracks", "-14.3%", "ok"},
		{"encoder.seeds", "+0.0%", "ok"},
		{"go.gc_pause_ms", "+100.0%", "-"},
	} {
		f := rows[c.metric]
		if len(f) < 2 || f[len(f)-1] != c.verdict || f[len(f)-3] != c.change {
			t.Errorf("%s row %q, want change %s and verdict %s", c.metric, f, c.change, c.verdict)
		}
	}
}
