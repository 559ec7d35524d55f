package main

// metricDef names one metric of the result line. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
type metricDef struct {
	name string
	unit string
	// exact marks a count that depends only on the seed: the same on every
	// run and every host. --compare judges it with bound 0, so a change that
	// buys time with worse results (more aborted faults, more seeds) reads
	// worse even when every time metric reads ok.
	exact bool
}

// endToEnd are the metrics of an untraced run, the same for every workload.
// throughput counts the workload's own unit of work: faults targeted
// (atpg-paper), patterns graded (grade-random), cubes compressed
// (compress-paper) or jobs completed (service-mix). The latency
// percentiles are over bench.latency_samples samples: every job of
// service-mix, but only one per op (its median) in a batch workload, whose
// p99 is therefore its slowest op or close to it.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "throughput", unit: "1/s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_p99_ms", unit: "ms"},
	{name: "alloc_mb_per_op", unit: "MB"},
	{name: "peak_rss_mb", unit: "MB"},
}

// tracedLayers are the layers a traced run reports self-time shares for:
// the layers called inside timed ops. "bench" is the benchmark's own code.
var tracedLayers = []string{"bench", "faultsim", "atpg", "encoder", "stateskip", "decompressor", "server"}

// perLayer are the metrics of a traced run's result line. Shares and
// counters of a layer a workload does not use read 0. Times are limited to
// those every workload measures: a time of a call one workload never makes
// would read 0 on every run. The mean time of every traced call
// (atpg.runall_ms, encoder.encode_ms, …) and the service's submit, fetch,
// queue and per-kind run percentiles go to the --out result file only.
var perLayer = []metricDef{
	{name: "bench.self_pct", unit: "%"},
	{name: "faultsim.self_pct", unit: "%"},
	{name: "atpg.self_pct", unit: "%"},
	{name: "encoder.self_pct", unit: "%"},
	{name: "stateskip.self_pct", unit: "%"},
	{name: "decompressor.self_pct", unit: "%"},
	{name: "server.self_pct", unit: "%"},
	{name: "trace.op_p50_ms", unit: "ms"},
	{name: "bench.latency_samples", unit: "count"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	{name: "faultsim.faults", unit: "count", exact: true},
	{name: "faultsim.detected", unit: "count", exact: true},
	{name: "atpg.detected", unit: "count", exact: true},
	{name: "atpg.untestable", unit: "count", exact: true},
	{name: "atpg.aborted", unit: "count", exact: true},
	{name: "atpg.aborted_share", unit: "%", exact: true},
	{name: "atpg.backtracks", unit: "count", exact: true},
	{name: "atpg.cubes", unit: "count", exact: true},
	{name: "encoder.seeds", unit: "count", exact: true},
	{name: "encoder.tdv_bits", unit: "bit", exact: true},
	{name: "encoder.checks", unit: "count", exact: true},
	{name: "encoder.variants_failed", unit: "count", exact: true},
	{name: "encoder.useful_attempt_share", unit: "%", exact: true},
	{name: "stateskip.useful_segments", unit: "count", exact: true},
	{name: "stateskip.useful_share", unit: "%", exact: true},
	{name: "stateskip.tsl_vectors", unit: "count", exact: true},
	{name: "decompressor.clocks", unit: "count", exact: true},
	{name: "decompressor.skip_clocks", unit: "count", exact: true},
	{name: "experiments.builds", unit: "count"},
	{name: "experiments.hit_rate", unit: "%"},
	{name: "server.retries", unit: "count"},
	{name: "server.shed", unit: "count"},
	{name: "journal.checkpoints", unit: "count"},
}
