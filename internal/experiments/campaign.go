package experiments

import (
	"paraverser/internal/core"
	"paraverser/internal/fault"
)

// Campaign runs the concurrent fault-injection campaign engine over the
// scale's fault benchmarks: randomized stuck-at / LSQ / transient faults
// against full-coverage and opportunistic checker systems, with the
// closed-loop recovery pipeline (re-replay, forensics, quarantine,
// graceful degradation) live in every trial. trials <= 0 picks a
// scale-appropriate default; the base seed makes the verdict tables
// reproducible regardless of workers.
func Campaign(sc Scale, seed int64, trials, workers int) (*fault.CampaignResult, error) {
	return campaign(defaultEngine(), sc, seed, trials, workers)
}

func campaign(e *Engine, sc Scale, seed int64, trials, workers int) (*fault.CampaignResult, error) {
	if trials <= 0 {
		trials = 4 * sc.FaultTrials
	}
	var workloads []core.Workload
	for _, bench := range sc.faultBenchmarks() {
		prog, err := specProg(bench)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, core.Workload{
			Name: bench, Prog: prog, MaxInsts: sc.FaultHorizon,
		})
	}

	// Trials run through the engine's trial memo, which also records
	// each executed trial's metrics shard for the export.
	return fault.RunCampaign(fault.CampaignConfig{
		Seed:      seed,
		Trials:    trials,
		Workers:   workers,
		Workloads: workloads,
		Configs:   campaignConfigs(),
		Memo:      e,
	})
}

// campaignConfigs returns the campaign's full-coverage and opportunistic
// trial templates. They run every trial to the full horizon
// (HaltOnDetection stays off): the campaign table reads re-replays,
// probation shadow checks, pool state and degraded time, all of which
// accrue after the first detection.
func campaignConfigs() []core.Config {
	full := core.DefaultConfig(a510Spec(4, 2.0))
	full.Recovery = core.DefaultRecovery()
	opp := core.DefaultConfig(a510Spec(2, 2.0))
	opp.Mode = core.ModeOpportunistic
	opp.Recovery = core.DefaultRecovery()
	// Campaign trials bypass Submit (they run on the campaign's own
	// workers), so the process-wide check-worker and trace settings are
	// applied here. Neither changes trial outcomes.
	applyCheckWorkers(&full)
	applyTrace(&full)
	applyCheckWorkers(&opp)
	applyTrace(&opp)
	return []core.Config{full, opp}
}
