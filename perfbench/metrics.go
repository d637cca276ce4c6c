package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run (--trace 0). Timings are medians over cold repetitions.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// entryPoints are the internal/experiments entry points the workloads
// call, in the order the benchmark runs them. Each gets an
// experiments.<entry>_s layer metric (0 on workloads that do not run it).
var entryPoints = []string{
	"fig6", "fig7", "fig9", "fig10", "fig11", "power", "opportunity", "ablation",
	"fig8", "campaign", "divergent", "strategies",
	"fuzz",
}

// spanNames are the span names whose summed self time is reported as
// self_ms.<name>. The self time of "program" is the benchmark's own work
// between the layer calls: the decomposition harness's overhead.
var spanNames = []string{
	"workload", "decompose", "program",
	"workload.build", "spec.generate", "fuzz.generate", "verify.screen", "fuzz.differential",
	"emu.step", "cpu.main.consume", "cpu.checker.consume",
	"cachesim.replay", "branch.replay", "core.lsl",
	"core.check", "core.check.segment", "noc.dispatch",
	"core.run.cold", "core.run.replay",
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"workload.build_ms", "ms"},
		{"emu.insts", "count"},
		{"emu.step_ns_per_inst", "ns"},
		{"cpu.main.consume_ns_per_inst", "ns"},
		{"cpu.main.ipc", "inst/cycle"},
		{"cpu.checker.consume_ns_per_inst", "ns"},
		{"cpu.checker.ipc", "inst/cycle"},
		{"cachesim.ns_per_access", "ns"},
		{"cachesim.accesses", "count"},
		{"cachesim.l1d_miss_rate", "ratio"},
		{"cachesim.l2_miss_rate", "ratio"},
		{"branch.ns_per_resolve", "ns"},
		{"branch.mispredict_rate", "ratio"},
		{"core.check.ns_per_inst", "ns"},
		{"core.check.segments", "count"},
		{"core.check.mismatches", "count"},
		{"core.check.segment_us.p50", "us"},
		{"core.check.segment_us.tail", "us"},
		{"core.check.segment_us.tail_pct", "percentile"},
		{"core.check.segment_us.n", "count"},
		{"core.lsl.bytes_per_inst", "B/inst"},
		{"core.lsl.lines_per_kinst", "lines/kinst"},
		{"noc.ns_per_dispatch", "ns"},
		{"noc.max_link_util", "ratio"},
		{"core.run.cold_ms", "ms"},
		{"core.run.replay_ms", "ms"},
		{"core.spec.replay_ratio", "ratio"},
		{"core.run.self_ns_per_inst", "ns"},
	}
	for _, e := range entryPoints {
		defs = append(defs, metricDef{"experiments." + e + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.runs", "count"},
		metricDef{"experiments.hits", "count"},
		metricDef{"experiments.hit_ratio", "ratio"},
		metricDef{"experiments.sim_insts", "count"},
		metricDef{"experiments.segments", "count"},
		metricDef{"experiments.checks", "count"},
		metricDef{"experiments.host_ns_per_sim_inst", "ns"},
		metricDef{"fault.trials", "count"},
		metricDef{"fault.ms_per_trial", "ms"},
		metricDef{"fault.detected_ratio", "ratio"},
		metricDef{"fuzz.programs", "count"},
		metricDef{"fuzz.screen_pass_ratio", "ratio"},
		metricDef{"fuzz.generate_us_per_program", "us"},
		metricDef{"verify.screen_us_per_program", "us"},
		metricDef{"fuzz.differential_ms.p50", "ms"},
		metricDef{"fuzz.differential_ms.p99", "ms"},
		metricDef{"fuzz.differential_ms.n", "count"},
		metricDef{"runtime.alloc_bytes_per_sim_inst", "B/inst"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"paper.fig6_gap_pp", "pp"},
		metricDef{"paper.fig8_gap_pp", "pp"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, s := range spanNames {
		defs = append(defs, metricDef{"self_ms." + s, "ms"})
	}
	return defs
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit fills every metric of defs from vals, in registry units. A
// metric with no value is reported as 0: the layer did no work on this
// workload.
func emit(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
