package core

import (
	"testing"

	"paraverser/internal/cpu"
	"paraverser/internal/freelist"
)

// recycleMatrix is the configuration matrix the recycling contract is
// held to: every strategy and check mode, Hash Mode, the dedicated-LSL
// baseline, opportunistic sampling, the per-instruction engine and the
// overlapped pipelined engine.
var recycleMatrix = []struct {
	name string
	mut  func(*Config)
}{
	{"lockstep", func(c *Config) {}},
	{"chunk-replay", func(c *Config) { c.Strategy = StrategyChunkReplay }},
	{"relaxed", func(c *Config) { c.Strategy = StrategyRelaxed }},
	{"divergent", func(c *Config) { c.CheckMode = CheckDivergent }},
	{"hash-mode", func(c *Config) { c.HashMode = true }},
	{"dedicated-lsl", func(c *Config) { c.DedicatedLSLBytes = 3 << 10 }},
	{"opportunistic", func(c *Config) {
		c.Mode = ModeOpportunistic
		c.SamplePeriod = 3
		c.Checkers = []CheckerSpec{{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1}}
	}},
	{"step-engine", func(c *Config) { c.BlockExec = BlockExecOff }},
	{"pipelined-workers", func(c *Config) { c.CheckWorkers = 2 }},
}

// TestRecycledStateMatchesFresh is the recycling contract: state a
// core.Run draws from the free lists — caches, predictor tables, log and
// effect arenas released by a run of a different configuration — must
// be indistinguishable from freshly allocated state. Each configuration
// A runs on fresh state (free lists drained), then a different
// configuration B runs and releases, then A runs again on B's released
// state; the two A results must render byte-identically.
func TestRecycledStateMatchesFresh(t *testing.T) {
	prog := mixedProgram(6000)
	run := func(i int) string {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		recycleMatrix[i].mut(&cfg)
		ws := []Workload{
			{Name: "m0", Prog: prog, MaxInsts: 5000, WarmupInsts: 1000},
			{Name: "m1", Prog: prog},
		}
		res, err := Run(cfg, ws)
		if err != nil {
			t.Fatalf("%s: %v", recycleMatrix[i].name, err)
		}
		return renderResult(res)
	}
	for a := range recycleMatrix {
		b := (a + 1) % len(recycleMatrix)
		t.Run(recycleMatrix[a].name, func(t *testing.T) {
			freelist.DrainAll()
			fresh := run(a)
			run(b)
			if got := run(a); got != fresh {
				t.Errorf("run on state released by %s diverged from a run on fresh state:\n--- fresh ---\n%s\n--- recycled ---\n%s",
					recycleMatrix[b].name, fresh, got)
			}
		})
	}
}
