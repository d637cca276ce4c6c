package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"paraverser/internal/experiments"
	"paraverser/internal/fault"
	"paraverser/internal/isa"
	"paraverser/internal/isa/fuzz"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
	"paraverser/internal/workload/spec"
)

// workloadEntries lists, per workload, the experiments entry points it
// runs, in order. See README.md for why each workload was chosen.
var workloadEntries = map[string][]string{
	"figures": {"fig6", "fig7", "fig9", "fig10", "fig11", "power", "opportunity", "ablation"},
	"faults":  {"fig8", "campaign", "divergent", "strategies"},
	"fuzz":    {"fuzz"},
}

// workloadNames is the fixed workload order for listings.
var workloadNames = []string{"figures", "faults", "fuzz"}

const (
	// jobs is the engine's simulation concurrency and the campaign and
	// fuzz worker count (-j 2 on the CLI).
	jobs = 2
	// defaultSeed reproduces experiments.Quick()'s benchmark list.
	defaultSeed = 1
	// fuzzSeeds sizes the fuzz workload at several seconds of a 2-core
	// host; fuzzInsts is the CLI's per-program target.
	fuzzSeeds = 1024
	fuzzInsts = 200
	// studySeed is the fault seed of the divergent and strategies
	// studies: the CLI's default, so they render the tables of
	// `paraverser -quick all`. Only the campaign entry point takes the
	// workload seed; the studies' host cost and memory swing with their
	// trial mix (divergent: 4.0-5.5 s CPU and 171-346 MB across three
	// seeds), which would leave the figures of different seeds
	// incomparable.
	studySeed = 1
	// Paper figures the simulated results are compared against.
	paperFig6GeomeanPct = 3.4 // fig. 6, 4xA510@2.0 geomean slowdown
	paperFig8DetectPct  = 76  // fig. 8, full-coverage detected share
)

// specStrata partitions the 20 SPEC profiles into eight groups of
// similar host cost and memory footprint, each holding exactly one
// benchmark of experiments.Quick()'s list (the first member). A seed
// picks one member per group, so held-out subsets cost about what the
// default subset costs and the host-time figures of different seeds
// stay comparable.
var specStrata = [][]string{
	{"perlbench", "wrf", "pop2"},
	{"gcc", "cam4", "xalancbmk"},
	{"mcf", "omnetpp", "fotonik3d"},
	{"deepsjeng", "leela"},
	{"exchange2", "nab"},
	{"bwaves", "cactuBSSN"},
	{"lbm", "roms", "xz"},
	{"imagick", "x264"},
}

// specSubset returns the 8-benchmark SPEC subset for a seed: the
// default seed gives experiments.Quick()'s list, any other seed one
// member of each stratum.
func specSubset(seed int64) []string {
	if seed == defaultSeed {
		return append([]string(nil), experiments.Quick().Benchmarks...)
	}
	out := make([]string, len(specStrata))
	for i, group := range specStrata {
		h := fuzz.Mix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(i))
		out[i] = group[h%uint64(len(group))]
	}
	return out
}

// scaleFor is experiments.Quick() with the seed's SPEC subset.
func scaleFor(seed int64) experiments.Scale {
	sc := experiments.Quick()
	sc.Benchmarks = specSubset(seed)
	return sc
}

// repRecord is what one repetition of a workload reports to the parent
// process.
type repRecord struct {
	// Digest is the rendered simulated results: every table the
	// workload's experiments produce, without any host timing.
	Digest string `json:"digest"`
	// Counters are the deterministic work counters of the same-work
	// guard; they must repeat exactly across repetitions.
	Counters map[string]int64 `json:"counters"`
	Ops      int              `json:"ops"`
	Failed   int              `json:"failed"`
	Failures []string         `json:"failures,omitempty"`
	// Layer holds the per-layer metrics a traced repetition measures.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []Span             `json:"spans,omitempty"`
}

func (r *repRecord) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// entryRun is one entry point's outcome inside a repetition.
type entryRun struct {
	text    string
	ops     int // operations beyond the call itself (trials, programs)
	failed  int
	failMsg string
	// Facts for the layer metrics: the paper gap of fig6 or fig8, the
	// campaign's trials and detections, the fuzz campaign's reports.
	gapPP            float64
	trials, detected int
	fuzzReports      []fuzz.SeedReport
}

// runWorkload runs one repetition of a workload in this process. With
// a non-nil tracer it records one span per entry point (phase 1 of a
// traced run) and fills the per-layer metrics it can see from here.
func runWorkload(name string, seed int64, tr *Tracer) (*repRecord, error) {
	entries, ok := workloadEntries[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	experiments.SetWorkers(jobs)
	sc := scaleFor(seed)
	rec := &repRecord{}
	layer := make(map[string]float64)

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	rec.Counters = map[string]int64{"fault.trials": 0, "fuzz.programs": 0}
	var digest strings.Builder
	var fuzzReports []fuzz.SeedReport
	root := tr.Begin("workload")
	for _, entry := range entries {
		id := tr.Begin("experiments." + entry)
		er, err := runEntry(entry, sc, seed)
		ns := tr.End(id)
		layer["experiments."+entry+"_s"] = float64(ns) / 1e9
		rec.Ops += 1 + er.ops
		if err != nil {
			rec.fail("%s: %v", entry, err)
			continue
		}
		if er.failed > 0 {
			rec.Failed += er.failed
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %s", entry, er.failMsg))
		}
		// The CLI follows each report with a "[<entry> completed in
		// <time>]" line and a blank line; the digest keeps the blank.
		digest.WriteString(er.text + "\n")
		switch entry {
		case "fig6":
			layer["paper.fig6_gap_pp"] = er.gapPP
		case "fig8":
			layer["paper.fig8_gap_pp"] = er.gapPP
		case "campaign":
			layer["fault.trials"] = float64(er.trials)
			layer["fault.ms_per_trial"] = ratio(float64(ns)/1e6, float64(er.trials))
			layer["fault.detected_ratio"] = ratio(float64(er.detected), float64(er.trials))
		}
		rec.Counters["fault.trials"] += int64(er.trials)
		rec.Counters["fuzz.programs"] += int64(len(er.fuzzReports))
		fuzzReports = append(fuzzReports, er.fuzzReports...)
	}
	wallNS := tr.End(root)
	rec.Digest = digest.String()

	snap := experiments.MetricsSnapshot()
	for name, counter := range map[string]string{
		"experiments.sim_insts": "paraverser_insts_total",
		"experiments.segments":  "paraverser_segments_total",
		"experiments.checks":    "paraverser_segments_checked_total",
		"experiments.runs":      "paraverser_runcache_runs_total",
		"experiments.hits":      "paraverser_runcache_hits_total",
	} {
		rec.Counters[name] = int64(snap.CounterValue(counter))
	}
	if tr == nil {
		return rec, nil
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	for k, v := range rec.Counters {
		layer[k] = float64(v)
	}
	runs, hits := layer["experiments.runs"], layer["experiments.hits"]
	layer["experiments.hit_ratio"] = ratio(hits, runs+hits)
	// The fuzz campaign bypasses the engine, so its simulated
	// instructions are counted here, after the timed section: one
	// reference execution per program.
	simInsts := layer["experiments.sim_insts"]
	attempts := 0
	for _, r := range fuzzReports {
		attempts += r.Attempts
		n, err := referenceInsts(fuzz.Generate(r.Seed, fuzzInsts).Program())
		if err != nil {
			return nil, err
		}
		simInsts += float64(n)
	}
	layer["fuzz.screen_pass_ratio"] = ratio(float64(len(fuzzReports)), float64(attempts))
	layer["experiments.host_ns_per_sim_inst"] = ratio(float64(wallNS), simInsts)
	layer["runtime.alloc_bytes_per_sim_inst"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), simInsts)
	layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	rec.Layer = layer
	rec.Spans = tr.Spans()
	return rec, nil
}

// runEntry calls one experiments entry point and renders its tables
// exactly as `paraverser -quick` prints them.
func runEntry(entry string, sc experiments.Scale, seed int64) (entryRun, error) {
	var b strings.Builder
	var er entryRun
	switch entry {
	case "fig6":
		r, err := experiments.Fig6(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
		er.gapPP = math.Abs(r.Geomean("4xA510@2.0") - paperFig6GeomeanPct)
	case "fig7":
		slow, cov, err := experiments.Fig7(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, slow.Table())
		fmt.Fprintln(&b, cov.Table())
	case "fig9":
		r, err := experiments.Fig9(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
	case "fig10":
		r, err := experiments.Fig10(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
	case "fig11":
		r, err := experiments.Fig11(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
	case "power":
		r, err := experiments.Power(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
	case "opportunity":
		r, err := experiments.Opportunity(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
	case "ablation":
		r, err := experiments.Ablation(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Table())
	case "fig8":
		r, err := experiments.Fig8(sc)
		if err != nil {
			return er, err
		}
		fmt.Fprintln(&b, r.Coverage.Table())
		er.gapPP = math.Abs(r.FullDetectedPct - paperFig8DetectPct)
	case "campaign":
		r, err := experiments.Campaign(sc, seed, 0, jobs)
		if err != nil {
			return er, err
		}
		fmt.Fprintf(&b, "fault-injection campaign: %d trials, seed %d\n\n", len(r.Trials), seed)
		fmt.Fprintln(&b, r.TrialTable())
		fmt.Fprintln(&b, r.Table())
		er.trials = len(r.Trials)
		er.detected = r.Outcomes()[fault.Detected]
		er.ops = len(r.Trials)
	case "divergent":
		r, err := experiments.Divergent(sc, studySeed, 0, jobs)
		if err != nil {
			return er, err
		}
		fmt.Fprintf(&b, "divergent-vs-lockstep study: %d paired trials, seed %d\n\n", len(r.Lockstep.Trials), studySeed)
		fmt.Fprintln(&b, r.Table())
		er.ops = len(r.Lockstep.Trials) + len(r.Divergent.Trials)
	case "strategies":
		r, err := experiments.Strategies(sc, studySeed, 0, jobs)
		if err != nil {
			return er, err
		}
		fmt.Fprintf(&b, "checker-strategy head-to-head, seed %d\n\n", studySeed)
		fmt.Fprintln(&b, r.Table())
		for _, name := range r.Order {
			er.ops += len(r.Campaigns[name].Trials)
		}
	case "fuzz":
		r := experiments.Fuzz(fuzzSeeds, fuzzInsts, jobs, uint64(seed))
		fmt.Fprintf(&b, "differential fuzz: %d seeds, ~%d insts each, base seed %d\n\n", fuzzSeeds, fuzzInsts, seed)
		fmt.Fprintln(&b, r.Table())
		er.fuzzReports = r.Reports
		er.ops = len(r.Reports)
		if !r.Clean() {
			er.failed = r.Summary.Mismatches + r.Summary.ScreenFailures
			er.failMsg = "divergences:\n" + r.Failures()
		}
	default:
		return er, fmt.Errorf("unknown entry point %q", entry)
	}
	er.text = b.String()
	return er, nil
}

// setupPrograms generates the programs a workload simulates, the way the
// experiments generate them, and predecodes each: the set-up a cold
// repetition pays before its first simulated instruction.
func setupPrograms(name string, seed int64) ([]*isa.Program, error) {
	sc := scaleFor(seed)
	var progs []*isa.Program
	addSpec := func(names []string) error {
		for _, n := range names {
			p, err := spec.ByName(n)
			if err != nil {
				return err
			}
			prog, err := p.Build(1 << 40)
			if err != nil {
				return err
			}
			progs = append(progs, prog)
		}
		return nil
	}
	switch name {
	case "figures":
		// fig. 10's mixes cover every SPEC profile, whatever the subset.
		if err := addSpec(spec.Names()); err != nil {
			return nil, err
		}
		g := gap.Kronecker(sc.GAPScale, sc.GAPEdgeFactor, 1)
		bfs, _ := gap.BFS(g, 0)
		pr, _ := gap.PageRank(g, 4)
		sssp, _ := gap.SSSP(g, 0)
		cc, _ := gap.CC(g)
		tc, _ := gap.TC(g)
		bc, _ := gap.BC(g, 0)
		progs = append(progs, bfs, pr, sssp, cc, tc, bc)
		for _, k := range parsec.Kernels(sc.ParsecScale) {
			progs = append(progs, k.Prog)
		}
	case "faults":
		if err := addSpec(sc.FaultBenchmarks); err != nil {
			return nil, err
		}
		g := gap.Kronecker(sc.GAPScale, sc.GAPEdgeFactor, 1)
		bfs, _ := gap.BFS(g, 0)
		pr, _ := gap.PageRank(g, 4)
		progs = append(progs, bfs, pr, parsec.BlackscholesThreads(sc.ParsecScale, 1))
	case "fuzz":
		for _, s := range fuzzProgramSeeds(seed, fuzzSeeds) {
			progs = append(progs, fuzz.Generate(s, fuzzInsts).Program())
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for _, p := range progs {
		p.Decoded()
	}
	return progs, nil
}

// fuzzProgramSeeds is the benchmark's own stream of fuzz program seeds
// for a workload seed.
func fuzzProgramSeeds(seed int64, n int) []uint64 {
	out := make([]uint64, n)
	s := uint64(seed) ^ 0xB5AD4ECEDA1CE2A9
	for i := range out {
		s = fuzz.Mix(s + uint64(i))
		out[i] = s
	}
	return out
}
