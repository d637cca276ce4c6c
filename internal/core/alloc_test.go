package core_test

import (
	"runtime"
	"testing"

	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/isa/fuzz"
)

// runAllocBudget is the steady-state heap allocation allowed per
// core.Run of a ~200-instruction fuzz program. Without recycling, a run
// allocated and zeroed its whole modelled capacity — an X2 core, two
// A510 checkers and the 8 MiB shared LLC, about 3.2 MB — however few
// instructions it simulated.
const runAllocBudget = 128 << 10

// TestRunAllocBound pins per-run construction to the state a run
// touches: once the free lists are warm, a short core.Run must allocate
// at most runAllocBudget bytes. It runs the lockstep configuration of
// the differential fuzzer, with and without the block-compiled engine.
func TestRunAllocBound(t *testing.T) {
	p := fuzz.Generate(7, 200).Program()
	ws := []core.Workload{{Name: p.Name, Prog: p}}
	for _, blocks := range []core.BlockExecMode{core.BlockExecOff, core.BlockExecOn} {
		cfg := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 2})
		cfg.BlockExec = blocks
		run := func() {
			res, err := core.Run(cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			if res.Detections() != 0 {
				t.Fatal("false detection on a fault-free run")
			}
		}
		for i := 0; i < 3; i++ {
			run() // warm the free lists
		}
		const n = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("blocks=%v: %d B allocated per core.Run", blocks, perRun)
		if perRun > runAllocBudget {
			t.Errorf("blocks=%v: %d B allocated per core.Run, budget %d", blocks, perRun, runAllocBudget)
		}
	}
}
