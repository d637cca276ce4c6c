package core

import (
	"reflect"
	"testing"
)

// TestHaltOnDetectionStopsAtFirstDetection: an injected run with
// recovery on (so checks dispatch synchronously) and HaltOnDetection
// set stops in the segment that detected. It reports the unhalted run's
// first detection instruction and first recovery event, exactly one
// detection, and executes exactly up to the detection.
func TestHaltOnDetectionStopsAtFirstDetection(t *testing.T) {
	run := func(halt bool) *Result {
		cfg := DefaultConfig(a510Checkers(4, 2.0))
		cfg.Recovery = DefaultRecovery()
		cfg.HaltOnDetection = halt
		withCheckerFault(&cfg, 0, 3)
		res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, halted := run(false), run(true)
	fl, hl := full.Lanes[0], halted.Lanes[0]
	if fl.FirstDetectionInst < 0 || fl.Insts <= uint64(fl.FirstDetectionInst) {
		t.Fatalf("full-horizon run detected at %d of %d insts; the halt has nothing to cut",
			fl.FirstDetectionInst, fl.Insts)
	}
	if hl.FirstDetectionInst != fl.FirstDetectionInst {
		t.Errorf("first detection at %d halted, %d full-horizon", hl.FirstDetectionInst, fl.FirstDetectionInst)
	}
	if hl.Detections != 1 {
		t.Errorf("halted run recorded %d detections, want 1", hl.Detections)
	}
	if hl.Insts != uint64(hl.FirstDetectionInst) || hl.Insts >= fl.Insts {
		t.Errorf("halted run executed %d insts (detection at %d, full horizon %d); want a stop in the detecting segment",
			hl.Insts, hl.FirstDetectionInst, fl.Insts)
	}
	if got := halted.Metrics.Insts; got != hl.Insts {
		t.Errorf("halted metrics count %d insts, the lane executed %d", got, hl.Insts)
	}
	if len(hl.SampleRecoveries) != 1 || len(fl.SampleRecoveries) == 0 {
		t.Fatalf("recovery events: %d halted, %d full-horizon; want 1 and at least 1",
			len(hl.SampleRecoveries), len(fl.SampleRecoveries))
	}
	if hl.SampleRecoveries[0] != fl.SampleRecoveries[0] {
		t.Errorf("first recovery event halted %+v, full-horizon %+v", hl.SampleRecoveries[0], fl.SampleRecoveries[0])
	}
}

// TestHaltOnDetectionCleanRunUnchanged: a run that never detects never
// halts, so on the pipelined engine (whose joins are the other halting
// point) a fault-free run's results and metrics are identical with the
// field on and off.
func TestHaltOnDetectionCleanRunUnchanged(t *testing.T) {
	run := func(halt bool) *Result {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		cfg.CheckWorkers = 2
		cfg.HaltOnDetection = halt
		res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(5000)}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, halted := run(false), run(true)
	if !reflect.DeepEqual(full.Lanes, halted.Lanes) || !reflect.DeepEqual(full.CheckersByLane, halted.CheckersByLane) {
		t.Errorf("clean run differs with HaltOnDetection:\n%+v\n--- vs ---\n%+v", halted.Lanes, full.Lanes)
	}
	if !reflect.DeepEqual(full.Metrics, halted.Metrics) {
		t.Error("clean run's metrics differ with HaltOnDetection")
	}
}
