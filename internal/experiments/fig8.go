package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/emu"
	"paraverser/internal/fault"
	"paraverser/internal/isa"
)

// Fig8Result reports the hard-error injection study.
type Fig8Result struct {
	Coverage *SeriesResult
	// FullDetectedPct is the fraction of injected faults detected under
	// full coverage (the paper's 76%; the remainder were masked).
	FullDetectedPct float64
	// MaskedPct is the fraction whose activations never changed
	// execution.
	MaskedPct float64
	// MeanDetectionInsts is the mean main-core instruction count at
	// first detection for opportunistically detected faults.
	MeanDetectionInsts float64
}

// fig8Configs are the opportunistic checker configurations whose
// hard-error coverage fig. 8 sweeps ("minimum required configuration to
// cover such portions of errors").
func fig8Configs() []NamedConfig {
	mk := func(spec core.CheckerSpec) core.Config {
		cfg := core.DefaultConfig(spec)
		cfg.Mode = core.ModeOpportunistic
		return cfg
	}
	return []NamedConfig{
		{Label: "1xA510@0.5", Cfg: mk(a510Spec(1, 0.5))},
		{Label: "1xA510@1.0", Cfg: mk(a510Spec(1, 1.0))},
		{Label: "2xA510@2.0", Cfg: mk(a510Spec(2, 2.0))},
	}
}

// fig8GroundTruth is the full-coverage system whose detections are
// fig. 8's detectability ground truth.
func fig8GroundTruth() core.Config { return core.DefaultConfig(x2Spec(1, 3.0)) }

// withFault returns a copy of cfg that injects f on checker 0 of every
// lane, with a fresh injector (so fire counters are per-run).
func withFault(cfg core.Config, f fault.Fault) (core.Config, *fault.Injector, error) {
	inj, err := fault.NewInjector(f)
	if err != nil {
		return cfg, nil, err
	}
	cfg.CheckerInterceptor = func(_, ckID int) emu.Interceptor {
		if ckID == 0 {
			return inj
		}
		return nil
	}
	return cfg, inj, nil
}

// submitFault schedules one injected run of bench over the engine's
// pool. Interceptor configs are never cached, so each submission keeps
// its private injector and fire counters. Fig. 8 reads only whether
// each run detected and where it first did, so the run halts at its
// first detection (verdictOnly); an undetected run, the only kind whose
// injector counters Classify reads, still covers the whole horizon.
func submitFault(e *Engine, cfg core.Config, bench string, f fault.Fault, horizon int64) (*Future, *fault.Injector, error) {
	prog, err := specProg(bench)
	if err != nil {
		return nil, nil, err
	}
	fcfg, inj, err := withFault(e.verdictOnly(cfg), f)
	if err != nil {
		return nil, nil, err
	}
	fut := e.Submit(fcfg, []core.Workload{{Name: bench, Prog: prog, MaxInsts: horizon}})
	return fut, inj, nil
}

// Fig8 injects single-bit stuck-at hard faults on a checker core
// (section VII-B's methodology) and measures, per configuration, the
// fraction of detectable faults the opportunistic mode catches within the
// horizon. Detectability ground truth is a full-coverage run with the
// same fault. Fault trials keep their per-trial deterministic seeds and
// fan out over the engine's pool; results are tallied in fixed
// (benchmark, config, fault) order, so the tables are byte-identical at
// any worker count.
func Fig8(sc Scale) (*Fig8Result, error) { return fig8(defaultEngine(), sc) }

func fig8(e *Engine, sc Scale) (*Fig8Result, error) {
	out := &Fig8Result{Coverage: &SeriesResult{
		Title:      "Fig. 8: hard-error detection coverage, opportunistic mode",
		Metric:     "% of detectable injected faults caught within horizon",
		Benchmarks: sc.faultBenchmarks(),
		Values:     make(map[string]map[string]float64),
	}}
	configs := fig8Configs()
	for _, nc := range configs {
		out.Coverage.Order = append(out.Coverage.Order, nc.Label)
		out.Coverage.Values[nc.Label] = make(map[string]float64)
	}

	fullCfg := fig8GroundTruth()
	faults := fault.Campaign(99, sc.FaultTrials, fuCounts())

	// Phase 1: ground-truth full-coverage runs for every (benchmark,
	// fault), all in flight at once.
	type gtRun struct {
		fut *Future
		inj *fault.Injector
	}
	ground := make(map[string][]gtRun, len(out.Coverage.Benchmarks))
	for _, bench := range out.Coverage.Benchmarks {
		runs := make([]gtRun, 0, len(faults))
		for _, f := range faults {
			fut, inj, err := submitFault(e, fullCfg, bench, f, sc.FaultHorizon)
			if err != nil {
				return nil, err
			}
			runs = append(runs, gtRun{fut, inj})
		}
		ground[bench] = runs
	}

	var injected, fullDetected, masked int
	var detSum, detN float64
	for _, bench := range out.Coverage.Benchmarks {
		detectable := make([]fault.Fault, 0, len(faults))
		for i, f := range faults {
			injected++
			gr := ground[bench][i]
			res, err := gr.fut.Wait()
			if err != nil {
				return nil, fmt.Errorf("fig8 ground truth %s: %w", bench, err)
			}
			switch fault.Classify(gr.inj, res.Detections() > 0) {
			case fault.Detected:
				fullDetected++
				detectable = append(detectable, f)
			case fault.Masked:
				masked++
			}
		}
		// Phase 2: the opportunistic sweep over the detectable set,
		// submitted as one matrix.
		oppF := make(map[string][]*Future, len(configs))
		for _, nc := range configs {
			futs := make([]*Future, 0, len(detectable))
			for _, f := range detectable {
				fut, _, err := submitFault(e, nc.Cfg, bench, f, sc.FaultHorizon)
				if err != nil {
					return nil, err
				}
				futs = append(futs, fut)
			}
			oppF[nc.Label] = futs
		}
		for _, nc := range configs {
			caught := 0
			for _, fut := range oppF[nc.Label] {
				res, err := fut.Wait()
				if err != nil {
					return nil, fmt.Errorf("fig8 %s/%s: %w", nc.Label, bench, err)
				}
				if res.Detections() > 0 {
					caught++
					detSum += float64(res.Lanes[0].FirstDetectionInst)
					detN++
				}
			}
			pct := 100.0
			if len(detectable) > 0 {
				pct = 100 * float64(caught) / float64(len(detectable))
			}
			out.Coverage.Values[nc.Label][bench] = pct
		}
	}
	if injected > 0 {
		out.FullDetectedPct = 100 * float64(fullDetected) / float64(injected)
		out.MaskedPct = 100 * float64(masked) / float64(injected)
	}
	if detN > 0 {
		out.MeanDetectionInsts = detSum / detN
	}
	out.Coverage.Notes = append(out.Coverage.Notes,
		fmt.Sprintf("full-coverage detected %.0f%% of injections (paper: 76%%); %.0f%% masked",
			out.FullDetectedPct, out.MaskedPct),
		fmt.Sprintf("mean detection latency %.0f main-core instructions", out.MeanDetectionInsts),
		"paper: almost all detectable errors caught by 1xA510@0.5GHz within 100M instructions")
	return out, nil
}

func fuCounts() map[isa.Class]int {
	fu := make(map[isa.Class]int)
	for class, pool := range x2Spec(1, 3.0).CPU.FUs {
		fu[class] = pool.Count
	}
	return fu
}
