// Command bench is the repository's benchmark. Each run measures one
// workload in its own process, checks every output it produces, and prints
// one JSON result line; bench/README.md lists the workloads and metrics.
//
//	bash bench/run.sh --workload atpg-paper --seed 0 --seconds 20 --trace 0
//	bash bench/run.sh --workload atpg-paper --trace 1 --out runs/traced
//	bash bench/run.sh --compare 'runs/parent-*' 'runs/change-*'
//
// The benchmark only calls the layers' public functions. With --trace 1 it
// records a span around each of those calls and reports per-layer metrics
// instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its set-up. Set-up generates the
// inputs from the seed and prepares everything the timed loop needs.
var workloads = map[string]func(context.Context, *options, *tracer) (instance, error){
	"atpg-paper":     setupATPG,
	"grade-random":   setupGrade,
	"compress-paper": setupCompress,
	"service-mix":    setupService,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// options configures one run.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration // how long the timed loop keeps starting ops
	trace    bool
	tiny     bool      // smoke-test input sizes
	tamper   func(any) // corrupts an op's output before its check (tests)
}

// instance is a set-up workload.
type instance interface {
	// measure runs the timed loop and checks the outputs.
	measure(ctx context.Context, o *options, tr *tracer) (*sample, error)
	close()
}

// sample is what one timed loop measured. Its throughput and latencies are
// in reference time (probe.go).
type sample struct {
	attempted, failed int
	throughput        float64            // work units per second
	opMS              []float64          // each distinct op's median latency; op_p50_ms is their median
	latencyMS         []float64          // the latencies op_p99_ms is taken over
	layer             map[string]float64 // per-layer counters and the service's percentiles
	ops               []opStat
	allocMB           float64   // heap allocated per op
	gcCycles          uint64    // GC cycles the runtime started during the loop
	gcPauseMS         float64   // stop-the-world GC time while ops ran
	probeMS           []float64 // host probes the loop ran
}

// goRuntime reads the bytes the process has allocated and the GC cycles the
// runtime has started on its own, both since the process began.
func goRuntime() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// gcPauseMS is the time the GC has stopped the world since the process
// began. It stops the world itself, so it is read only outside timed code.
func gcPauseMS() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6
}

// opStat describes one op of a batch workload.
type opStat struct {
	Label     string    `json:"label"`
	Work      float64   `json:"work"`
	MedianMS  float64   `json:"median_ms"`  // in reference time
	SamplesMS []float64 `json:"samples_ms"` // every successful run, in order, in reference time
}

// result is one run's outcome; --out writes it as <workload>.json.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// LayerSelfMS is each layer's self time summed over the traced ops.
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	Ops         []opStat           `json:"ops,omitempty"`
	spans       []span
}

func main() {
	runtime.GOMAXPROCS(2)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the timed loop keeps starting ops")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := fs.String("out", "", "directory to write <workload>.json, and <workload>.trace.json when tracing, into")
	compare := fs.Bool("compare", false, "compare two sets of result files against the bounds in BENCHMARK.json: --compare 'A/*' 'B/*'")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two globs")
			return 2
		}
		if err := compareRuns(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if workloads[*workload] == nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// Every run must end well within three minutes, stuck or not.
	ctx, cancel := context.WithTimeout(context.Background(), budget+120*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, options{workload: *workload, seed: *seed, budget: budget, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run sets the workload up setupReps times, measures the last set-up, and
// assembles every metric. The end-to-end times are in reference time
// (probe.go): the timed loop scales its own, and set-up is scaled by the
// median of every probe the run made.
func run(ctx context.Context, o options) (*result, error) {
	setup := workloads[o.workload]
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	probes := probeHost(probeRuns)
	var inst instance
	setups := make([]float64, setupReps)
	for i := range setups {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC() // so one set-up's garbage does not slow the next
		t0 := time.Now()
		var err error
		inst, err = setup(ctx, &o, tr)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
	}
	defer inst.close()

	runtime.GC()
	s, err := inst.measure(ctx, &o, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	probeMS := median(append(probes, s.probeMS...))
	m := map[string]float64{
		"setup_s":               median(setups) * probeRefMS / probeMS,
		"throughput":            s.throughput,
		"op_p50_ms":             median(s.opMS),
		"op_p99_ms":             quantile(s.latencyMS, 0.99),
		"host.probe_ms":         probeMS,
		"alloc_mb_per_op":       s.allocMB,
		"peak_rss_mb":           peakRSSMB(),
		"bench.latency_samples": float64(len(s.latencyMS)),
		"go.gc_cycles":          float64(s.gcCycles),
		"go.gc_pause_ms":        s.gcPauseMS,
	}
	for k, v := range s.layer {
		m[k] = v
	}
	deriveShares(m)
	res := &result{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: m, Ops: s.ops,
	}
	if tr != nil {
		res.spans = tr.recorded()
		self, total := opLayerSelf(res.spans)
		res.LayerSelfMS = make(map[string]float64)
		for layer, d := range self {
			res.LayerSelfMS[layer] = d.Seconds() * 1e3
		}
		for _, layer := range tracedLayers {
			m[layer+".self_pct"] = 0
			if total > 0 {
				m[layer+".self_pct"] = 100 * self[layer].Seconds() / total.Seconds()
			}
		}
		m["trace.op_p50_ms"] = m["op_p50_ms"]
		for name, ms := range callMeans(res.spans) {
			m[name+"_ms"] = ms
		}
	}
	return res, nil
}

// deriveShares adds the ratio metrics computed from raw counters, and turns
// the summed encoder table build time into a per-encode mean.
func deriveShares(m map[string]float64) {
	if n := m["encoder.encodes"]; n > 0 {
		m["encoder.table_build_ms"] /= n
	}
	share := func(name string, num, den float64) {
		m[name] = 0
		if den > 0 {
			m[name] = 100 * num / den
		}
	}
	share("atpg.aborted_share", m["atpg.aborted"], m["atpg.faults"])
	share("encoder.useful_attempt_share", m["encoder.encodes"], m["encoder.encodes"]+m["encoder.variants_failed"])
	share("stateskip.useful_share", m["stateskip.useful_segments"], m["stateskip.segments"])
	share("experiments.hit_rate", m["experiments.hits"], m["experiments.hits"]+m["experiments.builds"])
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// line is the result line: the end-to-end metrics of an untraced run, or
// the per-layer metrics of a traced one.
func (r *result) line() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, r.Workload+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if r.Trace {
		return writeChromeTrace(filepath.Join(dir, r.Workload+".trace.json"), r.spans)
	}
	return nil
}
