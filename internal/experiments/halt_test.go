package experiments

import (
	"fmt"
	"testing"

	"paraverser/internal/fault"
)

// trialVerdict is the part of a trial a verdict-only consumer reads.
type trialVerdict struct {
	Fault         fault.Fault
	Workload      string
	CheckerID     int
	Outcome       fault.Outcome
	DetectionInst int64
}

func verdictOf(tr *fault.TrialResult) trialVerdict {
	return trialVerdict{tr.Fault, tr.WorkloadName, tr.CheckerID, tr.Outcome, tr.DetectionInst}
}

// compareHalted checks one campaign run with and without halting:
// identical verdicts trial for trial; every detecting trial halted in
// the segment that detected (its executed main-core instructions equal
// its detection instruction); every other trial executed the same
// instructions (an undetected run never halts). It returns how many
// trials detected and how many of those the halting shortened — all
// but those whose detection fell in the workload's final segment.
func compareHalted(t *testing.T, label string, full, halted *fault.CampaignResult) (detected, shortened int) {
	t.Helper()
	if len(full.Trials) != len(halted.Trials) {
		t.Fatalf("%s: %d trials full-horizon, %d halted", label, len(full.Trials), len(halted.Trials))
	}
	for i := range full.Trials {
		f, h := &full.Trials[i], &halted.Trials[i]
		if verdictOf(f) != verdictOf(h) {
			t.Errorf("%s trial %d: halted verdict %+v, full-horizon %+v", label, i, verdictOf(h), verdictOf(f))
			continue
		}
		shortened += checkHaltedInsts(t, fmt.Sprintf("%s trial %d", label, i),
			f.Outcome == fault.Detected, f.DetectionInst, f.Metrics.Insts, h.Metrics.Insts)
		if f.Outcome == fault.Detected {
			detected++
		}
	}
	return detected, shortened
}

// checkHaltedInsts checks one injected run's executed main-core
// instructions halted (hi) against full-horizon (fi), and reports 1 if
// halting shortened the run.
func checkHaltedInsts(t *testing.T, label string, detected bool, detInst int64, fi, hi uint64) int {
	t.Helper()
	switch {
	case !detected:
		if hi != fi {
			t.Errorf("%s: undetected, yet executed %d insts halted vs %d full-horizon", label, hi, fi)
		}
	case hi != uint64(detInst) || hi > fi:
		t.Errorf("%s: detected at %d, executed %d insts halted vs %d full-horizon; want a halt at the detecting segment",
			label, detInst, hi, fi)
	case hi < fi:
		return 1
	}
	return 0
}

// TestHaltOnDetectionInvariance pins the verdict-only halting contract
// on its three consumers at a reduced scale. With halting on and off:
//   - the divergent and strategies studies' trials have identical
//     (fault, workload, checker, outcome, detection instruction) and
//     both studies render identical tables;
//   - fig. 8's injected runs on one benchmark detect identically, at
//     the same first-detection instruction, with the same
//     classification, and fig. 8 renders the identical table;
//   - every halted run that detects stops in the segment that
//     detected, so it executes strictly fewer main-core instructions
//     unless that segment ended the workload; a run that does not
//     detect executes the same instructions.
func TestHaltOnDetectionInvariance(t *testing.T) {
	sc := strategyScale()
	const seed, divTrials, stratTrials = 11, 4, 4
	full, halted := NewEngine(2), NewEngine(2)
	full.fullHorizon = true

	type studies struct {
		div   *DivergentResult
		strat *StrategyResult
		fig8  *Fig8Result
	}
	run := func(e *Engine) studies {
		div, err := divergentStudy(e, sc, seed, divTrials, 2)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := strategyStudy(e, sc, seed, stratTrials, 2)
		if err != nil {
			t.Fatal(err)
		}
		f8sc := sc
		f8sc.FaultTrials = 4
		fig, err := fig8(e, f8sc)
		if err != nil {
			t.Fatal(err)
		}
		return studies{div, strat, fig}
	}
	f, h := run(full), run(halted)

	if got, want := h.div.Table(), f.div.Table(); got != want {
		t.Errorf("divergent table differs under halting:\n%s\n--- full horizon ---\n%s", got, want)
	}
	if got, want := h.strat.Table(), f.strat.Table(); got != want {
		t.Errorf("strategies table differs under halting:\n%s\n--- full horizon ---\n%s", got, want)
	}
	if got, want := h.fig8.Coverage.Table(), f.fig8.Coverage.Table(); got != want {
		t.Errorf("fig. 8 table differs under halting:\n%s\n--- full horizon ---\n%s", got, want)
	}

	var detected, shortened int
	tally := func(label string, full, halted *fault.CampaignResult) {
		d, s := compareHalted(t, label, full, halted)
		detected += d
		shortened += s
	}
	tally("divergent/lockstep", f.div.Lockstep, h.div.Lockstep)
	tally("divergent/divergent", f.div.Divergent, h.div.Divergent)
	for _, name := range f.strat.Order {
		tally("strategies/"+name, f.strat.Campaigns[name], h.strat.Campaigns[name])
	}
	if shortened == 0 {
		t.Fatalf("halting shortened none of the %d detecting study trials", detected)
	}

	// Fig. 8's ground-truth runs, one by one: the opportunistic phase
	// is covered by the table above.
	bench := sc.faultBenchmarks()[0]
	runsShortened := 0
	for i, flt := range fault.Campaign(99, 4, fuCounts()) {
		label := fmt.Sprintf("fig8 %s fault %d (%v)", bench, i, flt)
		ff, finj, err := submitFault(full, fig8GroundTruth(), bench, flt, sc.FaultHorizon)
		if err != nil {
			t.Fatal(err)
		}
		hf, hinj, err := submitFault(halted, fig8GroundTruth(), bench, flt, sc.FaultHorizon)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := ff.Wait()
		if err != nil {
			t.Fatal(err)
		}
		hr, err := hf.Wait()
		if err != nil {
			t.Fatal(err)
		}
		fdet, hdet := fr.Detections() > 0, hr.Detections() > 0
		if fc, hc := fault.Classify(finj, fdet), fault.Classify(hinj, hdet); fc != hc {
			t.Errorf("%s: classified %v halted, %v full-horizon", label, hc, fc)
		}
		if fi, hi := fr.Lanes[0].FirstDetectionInst, hr.Lanes[0].FirstDetectionInst; fi != hi {
			t.Errorf("%s: first detection at %d halted, %d full-horizon", label, hi, fi)
		}
		runsShortened += checkHaltedInsts(t, label, fdet, fr.Lanes[0].FirstDetectionInst,
			fr.Metrics.Insts, hr.Metrics.Insts)
	}
	if runsShortened == 0 {
		t.Fatal("halting shortened no fig. 8 ground-truth run")
	}
	if hi, fi := halted.Gather().Insts, full.Gather().Insts; hi >= fi {
		t.Errorf("halted engine executed %d insts in total, full-horizon %d", hi, fi)
	}
}

// TestHaltOnDetectionOffInCampaign guards the campaign experiment, whose
// table reads what accrues after the first detection (re-replays,
// probation shadow checks, pool state, degraded time): its templates
// never halt, their trial-memo fingerprints differ from the halting
// copies' (so a study's halted trial never serves the campaign), and
// every trial's metrics shard covers the whole fault horizon, detected
// or not.
func TestHaltOnDetectionOffInCampaign(t *testing.T) {
	e := NewEngine(2)
	for i, cfg := range campaignConfigs() {
		if cfg.HaltOnDetection {
			t.Errorf("campaign template %d halts on detection", i)
		}
		if halting := e.verdictOnly(cfg); fingerprint(&halting) == fingerprint(&cfg) {
			t.Errorf("campaign template %d shares its fingerprint with its halting copy", i)
		}
	}
	sc := strategyScale()
	r, err := campaign(e, sc, 5, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for i := range r.Trials {
		tr := &r.Trials[i]
		if tr.Outcome == fault.Detected {
			detected++
		}
		if got := tr.Metrics.Insts; got != uint64(sc.FaultHorizon) {
			t.Errorf("campaign trial %d (%v, %v) executed %d insts, want the full %d-instruction horizon",
				i, tr.Fault, tr.Outcome, got, sc.FaultHorizon)
		}
	}
	if detected == 0 {
		t.Fatal("no campaign trial detected its fault; the horizon check is vacuous")
	}
}
