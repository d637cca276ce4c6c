package fuzz

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// Divergence describes one differential mismatch: which engine pair (or
// which system configuration) disagreed, and how.
type Divergence struct {
	Stage  string // "step", "blocks", "step-vs-blocks", "strategy:<name>", "spec", "divergent"
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("fuzz: %s: %s", d.Stage, d.Detail)
}

// archFingerprint flattens a machine's complete architectural outcome —
// every hart's register file, PC, instret and halt flag plus a hash of
// all resident memory — into a comparable string.
func archFingerprint(m *emu.Machine) string {
	var b strings.Builder
	for i, h := range m.Harts {
		fmt.Fprintf(&b, "hart%d pc=%d instret=%d halted=%v\nX=%x\nF=", i, h.State.PC, h.Instret, h.Halted, h.State.X)
		for _, f := range h.State.F {
			fmt.Fprintf(&b, "%x,", f)
		}
		b.WriteString("\n")
	}
	type pg struct {
		base uint64
		sum  uint64
	}
	var pages []pg
	m.Mem.ForEachPage(func(base uint64, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		pages = append(pages, pg{base, h.Sum64()})
	})
	sort.Slice(pages, func(i, j int) bool { return pages[i].base < pages[j].base })
	for _, p := range pages {
		fmt.Fprintf(&b, "page %#x %016x\n", p.base, p.sum)
	}
	return b.String()
}

// dynLimit caps differential executions: screened programs carry a
// proved MaxInsts, and anything past this is a screening failure, not
// an engine test.
const dynLimit = 1 << 20

// runStep executes the program to halt on the per-instruction engine.
func runStep(p *isa.Program, seed uint64) (*emu.Machine, error) {
	m, err := emu.NewMachine(p, seed)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(dynLimit, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// runBlocks executes the program to halt on the block-compiled engine.
func runBlocks(p *isa.Program, seed uint64) (*emu.Machine, error) {
	m, err := emu.NewMachine(p, seed)
	if err != nil {
		return nil, err
	}
	batch := make([]emu.Effect, 512)
	total := 0
	for m.Running() {
		progressed := false
		for i, h := range m.Harts {
			if h.Halted {
				continue
			}
			n, err := m.RunBlocks(i, batch, len(batch))
			if err != nil {
				return nil, err
			}
			total += n
			if n > 0 {
				progressed = true
			}
			if total > dynLimit {
				return nil, emu.ErrLimit
			}
		}
		if !progressed {
			return nil, fmt.Errorf("fuzz: block engine made no progress")
		}
	}
	return m, nil
}

// flattenResult mirrors the core package's determinism-test rendering:
// every externally observable statistic of a run, including the metrics
// shard, so byte equality means the whole observable surface matched.
func flattenResult(res *core.Result) string {
	return fmt.Sprintf("lanes=%v\ncheckers=%v\nlink=%v llc=%v\nmetrics=%s",
		res.Lanes, res.CheckersByLane, res.MaxLinkUtilisation, res.AvgLLCExtraNS,
		res.Metrics.String())
}

func checkerPool() core.CheckerSpec {
	return core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 2}
}

// sysConfig builds one full-system configuration for the differential
// matrix.
func sysConfig(seed uint64, strat core.Strategy, blocks core.BlockExecMode) core.Config {
	cfg := core.DefaultConfig(checkerPool())
	cfg.Seed = seed
	cfg.Strategy = strat
	cfg.BlockExec = blocks
	return cfg
}

// Differential runs one screened program through every engine and
// checker strategy and compares the outcomes. It returns nil when all
// engines agree and every checker verdict is clean, or the first
// divergence found. seed feeds the per-hart RAND streams identically in
// every engine.
func Differential(p *isa.Program, seed uint64) *Divergence {
	// 1. Per-instruction vs block-compiled functional engines: the full
	// architectural outcome must be byte-identical.
	stepM, err := runStep(p, seed)
	if err != nil {
		return &Divergence{Stage: "step", Detail: err.Error()}
	}
	blockM, err := runBlocks(p, seed)
	if err != nil {
		return &Divergence{Stage: "blocks", Detail: err.Error()}
	}
	stepFP, blockFP := archFingerprint(stepM), archFingerprint(blockM)
	if stepFP != blockFP {
		return &Divergence{Stage: "step-vs-blocks",
			Detail: fmt.Sprintf("architectural state diverged:\n--- step ---\n%s--- blocks ---\n%s", stepFP, blockFP)}
	}
	var refInsts uint64
	for _, h := range stepM.Harts {
		refInsts += h.Instret
	}

	// 2. Every checker strategy, with and without the block-compiled
	// engine: each run must retire exactly the reference instruction
	// count and raise zero detections (a detection on a fault-free run
	// is a checker false positive; an instruction-count delta is a
	// functional divergence inside the system model). The lockstep
	// block-engine run is kept as stage 3's reference.
	ws := []core.Workload{{Name: p.Name, Prog: p}}
	var seqRes *core.Result
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"lockstep", core.StrategyLockstep},
		{"chunk-replay", core.StrategyChunkReplay},
		{"relaxed", core.StrategyRelaxed},
	}
	for _, s := range strategies {
		for _, blocks := range []core.BlockExecMode{core.BlockExecOff, core.BlockExecOn} {
			res, err := core.Run(sysConfig(seed, s.strat, blocks), ws)
			if err != nil {
				return &Divergence{Stage: "strategy:" + s.name, Detail: err.Error()}
			}
			if n := res.Detections(); n != 0 {
				return &Divergence{Stage: "strategy:" + s.name,
					Detail: fmt.Sprintf("%d false detection(s) on a fault-free run (blocks=%v)", n, blocks)}
			}
			if got := res.TotalInsts(); got != refInsts {
				return &Divergence{Stage: "strategy:" + s.name,
					Detail: fmt.Sprintf("retired %d instructions, reference %d (blocks=%v)", got, refInsts, blocks)}
			}
			if s.strat == core.StrategyLockstep && blocks == core.BlockExecOn {
				seqRes = res
			}
		}
	}

	// 3. Stream recording: a run that records its stream into a fresh
	// speculation cache must render byte-identically to the same
	// configuration without the cache (stage 2's lockstep block-engine
	// run).
	rec := sysConfig(seed, core.StrategyLockstep, core.BlockExecOn)
	rec.Spec = core.NewSpecCache()
	recRes, err := core.Run(rec, ws)
	if err != nil {
		return &Divergence{Stage: "spec", Detail: err.Error()}
	}
	if a, b := flattenResult(seqRes), flattenResult(recRes); a != b {
		return &Divergence{Stage: "spec",
			Detail: fmt.Sprintf("recording run diverged from the run without a cache:\n--- no cache ---\n%s\n--- recording ---\n%s", a, b)}
	}

	// 4. Divergent checking: the decorrelated variant must also verify
	// clean against the original (single-hart programs only, which is
	// all the generator emits).
	if len(p.Entries) == 1 {
		div := sysConfig(seed, core.StrategyAuto, core.BlockExecOn)
		div.CheckMode = core.CheckDivergent
		res, err := core.Run(div, ws)
		if err != nil {
			return &Divergence{Stage: "divergent", Detail: err.Error()}
		}
		if n := res.Detections(); n != 0 {
			return &Divergence{Stage: "divergent",
				Detail: fmt.Sprintf("%d false detection(s) in divergent mode", n)}
		}
	}
	return nil
}
