package core

import (
	"testing"

	"paraverser/internal/cpu"
	"paraverser/internal/workload/spec"
)

// runBlockExec runs cfg with the given execution engine over ws and
// returns the flattened result string (renderResult covers lane
// verdicts, checker stats, float link/LLC statistics and the metrics
// shard, so equality means byte-identical experiment tables).
func runBlockExec(t *testing.T, cfg Config, mode BlockExecMode, ws []Workload) string {
	t.Helper()
	cfg.BlockExec = mode
	res, err := Run(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(res)
}

// TestBlockExecInvariance is the determinism contract of the
// block-compiled engine: every externally observable statistic of a run
// must be byte-identical whether emulation and checker replay execute
// per-instruction (BlockExecOff) or through the basic-block translation
// cache with batched effect delivery (BlockExecOn). The cases sweep the
// config axes that shape segment boundaries and check dispatch: wake
// policy, hash mode, opportunistic sampling (finite resume windows force
// the per-instruction fallback mid-run), interrupt cadence, pipelined
// workers, unchecked operation, divergent checking (a whole-lane
// fallback path), the non-lockstep strategies, and two SPEC stand-ins
// at the CLI's quick scale under fig. 6's 4xA510 pool.
func TestBlockExecInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"full-coverage-eager", func(c *Config) {}},
		{"full-coverage-late-wake", func(c *Config) { c.EagerWake = false }},
		{"hash-mode", func(c *Config) { c.HashMode = true }},
		{"opportunistic-sampled", func(c *Config) {
			c.Mode = ModeOpportunistic
			c.SamplePeriod = 3
			c.Checkers = []CheckerSpec{{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1}}
		}},
		{"irq-interval", func(c *Config) { c.InterruptIntervalInsts = 700 }},
		{"pipelined-workers", func(c *Config) { c.CheckWorkers = 4 }},
		{"no-checking", func(c *Config) { c.Checkers = nil }},
		{"divergent", func(c *Config) { c.CheckMode = CheckDivergent }},
		{"chunk-replay", func(c *Config) { c.Strategy = StrategyChunkReplay }},
		{"relaxed", func(c *Config) { c.Strategy = StrategyRelaxed }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := []Workload{
				{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
				{Name: "m1", Prog: prog},
			}
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			tc.mut(&cfg)
			assertBlockExecInvariant(t, cfg, ws)
		})
	}
	t.Run("spec-mcf-deepsjeng-quick", func(t *testing.T) {
		assertBlockExecInvariant(t, DefaultConfig(a510Checkers(4, 2.0)), quickSPECWorkloads(t))
	})
}

func assertBlockExecInvariant(t *testing.T, cfg Config, ws []Workload) {
	t.Helper()
	base := runBlockExec(t, cfg, BlockExecOff, ws)
	if got := runBlockExec(t, cfg, BlockExecOn, ws); got != base {
		t.Errorf("block engine diverged from per-instruction engine:\n--- off ---\n%s\n--- on ---\n%s", base, got)
	}
}

// quickSPECWorkloads returns the mcf and deepsjeng stand-ins over the
// CLI's quick window (120k measured instructions after an 80k warmup),
// one lane each: a memory-bound pointer chaser and a branchy
// compute-bound program.
func quickSPECWorkloads(t *testing.T) []Workload {
	t.Helper()
	var ws []Workload
	for _, name := range []string{"mcf", "deepsjeng"} {
		p, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p.Build(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, Workload{Name: name, Prog: prog, MaxInsts: 120_000, WarmupInsts: 80_000})
	}
	return ws
}

// TestBlockExecSpecInvariance extends the contract to stream
// record/replay: with a speculation cache attached, both the recording
// run (the block engine's batches pass the recording tap effect by
// effect) and the replay runs (cursor reconstruction stays
// per-instruction; only timing delivery batches) must match the
// per-instruction baseline without the cache exactly.
func TestBlockExecSpecInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{
		{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
		{Name: "m1", Prog: prog},
	}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.BlockExec = BlockExecOff
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cfg.BlockExec = BlockExecOn
	cfg.Spec = cache
	for i := 0; i < 3; i++ {
		if got := runSpec(t, cfg, ws); got != base {
			t.Fatalf("block-engine spec run %d diverged from per-instruction sequential baseline:\n--- base ---\n%s\n--- got ---\n%s", i, base, got)
		}
	}
	st := cache.Stats()
	if st.StreamsRecorded == 0 {
		t.Error("no stream was recorded under the block engine")
	}
	if st.StreamsReplayed == 0 {
		t.Error("no stream was replayed under the block engine")
	}
	if st.SpecAborts != 0 {
		t.Errorf("clean block-engine runs raised %d speculation aborts", st.SpecAborts)
	}
}

// TestBlockExecInterceptorInvariance pins the fault-injection fallback:
// a checker-side interceptor disables block-compiled replay for the
// affected dispatches (and recovery disables pipelining entirely), yet
// the whole run — detections, recovery verdicts, quarantine events —
// must remain byte-identical between engines, and the fault must
// actually fire under both so the comparison is not vacuous.
func TestBlockExecInterceptorInvariance(t *testing.T) {
	prog := mixedProgram(20000)
	run := func(mode BlockExecMode) (string, int) {
		cfg := DefaultConfig(a510Checkers(4, 2.0))
		cfg.Recovery = DefaultRecovery()
		cfg.BlockExec = mode
		intc := withCheckerFault(&cfg, 0, 3)
		res, err := Run(cfg, []Workload{{Name: "mixed", Prog: prog}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Lanes[0].Detections == 0 {
			t.Fatal("persistent checker fault raised no detections; test is vacuous")
		}
		return renderResult(res), intc.fires
	}
	base, baseFires := run(BlockExecOff)
	got, gotFires := run(BlockExecOn)
	if baseFires == 0 || gotFires == 0 {
		t.Fatalf("interceptor fired %d/%d times (off/on); fallback never exercised", baseFires, gotFires)
	}
	if got != base {
		t.Errorf("interceptor run diverged between engines:\n--- off ---\n%s\n--- on ---\n%s", base, got)
	}
	if gotFires != baseFires {
		t.Errorf("interceptor fired %d times under the block engine, %d per-instruction", gotFires, baseFires)
	}
}
