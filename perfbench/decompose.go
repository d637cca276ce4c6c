package main

import (
	"fmt"
	"math"

	"paraverser/internal/branch"
	"paraverser/internal/cachesim"
	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/fault"
	"paraverser/internal/isa"
	"paraverser/internal/isa/fuzz"
	"paraverser/internal/noc"
	"paraverser/internal/workload/spec"
)

// segInsts is the checkpoint length the decomposition cuts segments at:
// the engine's 5000-instruction timeout boundary (section IV-F).
const segInsts = 5000

// batchInsts is how many instructions are emulated before each layer
// takes the batch: small enough that the effects are still in the host's
// caches when the layers read them, as in the engine's batched path.
const batchInsts = 1000

// decompProgram is one program of a workload's decomposition phase.
type decompProgram struct {
	name string
	// build generates the program from a seed (fuzz programs only use
	// it); it runs inside the workload.build span.
	build func(seed uint64) (*isa.Program, error)
	// warmup+insts is the emulated window; 0 runs the program to halt.
	insts, warmup int64
	// fuzzSeed, for generated programs, is the seed they are screened
	// and executed differentially with.
	fuzzSeed uint64
	isFuzz   bool
	// inject makes the second core.Run a fault-injected trial instead
	// of a stream replay, as in the faults workload.
	inject bool
}

// decompPrograms lists the programs a workload's decomposition runs on:
// its own programs, at the window the workload simulates them.
func decompPrograms(name string, seed int64, fuzzCount int) ([]decompProgram, error) {
	sc := scaleFor(seed)
	specProg := func(bench string, insts, warmup int64, inject bool) decompProgram {
		return decompProgram{
			name: bench, insts: insts, warmup: warmup, inject: inject,
			build: func(uint64) (*isa.Program, error) {
				p, err := spec.ByName(bench)
				if err != nil {
					return nil, err
				}
				return p.Build(1 << 40)
			},
		}
	}
	var out []decompProgram
	switch name {
	case "figures":
		for _, b := range sc.Benchmarks {
			out = append(out, specProg(b, sc.Insts, sc.Warmup, false))
		}
	case "faults":
		for _, b := range sc.FaultBenchmarks {
			out = append(out, specProg(b, sc.FaultHorizon, 0, true))
		}
	case "fuzz":
		for _, s := range fuzzProgramSeeds(seed, fuzzCount) {
			out = append(out, decompProgram{
				name: fmt.Sprintf("fuzz-%016x", s), fuzzSeed: s, isFuzz: true,
				build: func(seed uint64) (*isa.Program, error) {
					return fuzz.Generate(seed, fuzzInsts).Program(), nil
				},
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// layerAcc accumulates the decomposition's per-layer work and time.
type layerAcc struct {
	buildNS, genNS, screenNS         int64
	emuNS, mainNS, ckNS, cacheNS     int64
	brNS, checkNS, nocNS             int64
	coldNS, replayNS, selfNS         int64
	emuInsts, mainInsts, ckInsts     uint64
	mainCycles, ckCycles             float64
	cacheAccesses                    uint64
	l1dAcc, l1dMiss, l2Acc, l2Miss   uint64
	brLookups, brMiss                uint64
	lslBytes, lslLines, checkInsts   uint64
	segments, mismatches, dispatches int
	segUS, diffMS                    []float64
	maxLink                          float64
	replaySegs, replayedSegs         uint64
	runInsts                         uint64
	generated, screened              int
}

// machineSeed is the RAND seed the engine gives a default-configured
// run, so emulation here follows the same path core.Run does.
var machineSeed = core.DefaultConfig().Seed

// decompose runs every program through each layer's public functions in
// turn, one span per layer call, and returns the per-layer metrics.
// Every program is one operation; decomposeProgram returns why one
// failed.
func decompose(progs []decompProgram, tr *Tracer, rec *repRecord) map[string]float64 {
	var acc layerAcc
	root := tr.Begin("decompose")
	for _, p := range progs {
		rec.Ops++
		id := tr.Begin("program")
		err := decomposeProgram(p, tr, &acc)
		tr.End(id)
		if err != nil {
			rec.fail("decompose %s: %v", p.name, err)
		}
	}
	tr.End(root)
	return acc.metrics()
}

func decomposeProgram(p decompProgram, tr *Tracer, acc *layerAcc) error {
	prog, seed, err := p.load(tr, acc)
	if err != nil {
		return err
	}
	if p.isFuzz {
		id := tr.Begin("fuzz.differential")
		d := fuzz.Differential(prog, seed)
		acc.diffMS = append(acc.diffMS, float64(tr.End(id))/1e6)
		if d != nil {
			return fmt.Errorf("differential: %v", d)
		}
	}
	window := p.insts + p.warmup
	st, err := newLayerState(prog)
	if err != nil {
		return err
	}
	// layerNS sums the layers a cold core.Run also executes, so the
	// run's self time is what the layers alone do not explain.
	var layerNS int64
	mismatchesBefore := acc.mismatches
	for !st.hart.Halted && (window == 0 || st.n < window) {
		fuel := int64(batchInsts)
		if window > 0 {
			fuel = min(fuel, window-st.n)
		}
		batch, ends, err := st.emulate(int(fuel), tr, acc)
		if err != nil {
			return err
		}
		layerNS += st.consume(batch, tr, acc)
		st.replayCachesAndBranches(batch, tr, acc)
		segs := st.cut(batch, ends, tr, acc)
		layerNS += st.checkAndDispatch(prog, segs, tr, acc)
	}
	if st.seg.Insts > 0 {
		st.seg.LogLines += st.lspu.Flush()
		st.seg.End = st.hart.State
		layerNS += st.checkAndDispatch(prog, []*core.Segment{st.seg}, tr, acc)
	}
	if window > 0 && st.n != window {
		return fmt.Errorf("emulated %d instructions, window %d", st.n, window)
	}
	if n := acc.mismatches - mismatchesBefore; n > 0 {
		return fmt.Errorf("%d mismatches checking clean segments", n)
	}
	acc.lslLines += uint64(st.lspu.PushedLines)
	acc.l1dAcc += st.hier.L1D.Stats.Accesses
	acc.l1dMiss += st.hier.L1D.Stats.Misses
	acc.l2Acc += st.hier.L2.Stats.Accesses
	acc.l2Miss += st.hier.L2.Stats.Misses
	acc.brLookups += st.bu.Stats.Lookups
	acc.brMiss += st.bu.Stats.Mispredicts
	acc.mainInsts += st.main.Insts()
	acc.mainCycles += st.main.Cycles()
	acc.ckInsts += st.checker.Insts()
	acc.ckCycles += st.checker.Cycles()
	n := st.n

	// The full system: a cold run recording its stream into a fresh
	// speculation cache, then a second run that shares it.
	ws := []core.Workload{{Name: p.name, Prog: prog, MaxInsts: p.insts, WarmupInsts: p.warmup}}
	cold := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 4})
	cold.Spec = core.NewSpecCache()
	id := tr.Begin("core.run.cold")
	res, err := core.Run(cold, ws)
	coldNS := tr.End(id)
	acc.coldNS += coldNS
	if err != nil {
		return fmt.Errorf("core.Run: %w", err)
	}
	if err := checkCleanRun(res); err != nil {
		return err
	}
	if p.isFuzz && res.TotalInsts() != uint64(n) {
		return fmt.Errorf("emulated %d instructions, the system retired %d", n, res.TotalInsts())
	}
	acc.maxLink = math.Max(acc.maxLink, res.MaxLinkUtilisation)
	acc.runInsts += uint64(n)
	acc.selfNS += coldNS - layerNS

	second := core.DefaultConfig(core.CheckerSpec{CPU: cpu.X2(), FreqGHz: 3.0, Count: 1})
	second.Spec = cold.Spec
	if p.inject {
		faults := fault.Campaign(injectSeed, 1, fuCounts())
		inj, err := fault.NewInjector(faults[0])
		if err != nil {
			return err
		}
		second.CheckerInterceptor = func(_, ckID int) emu.Interceptor {
			if ckID == 0 {
				return inj
			}
			return nil
		}
	}
	before := cold.Spec.Stats().SegmentsReplayed
	id = tr.Begin("core.run.replay")
	res2, err := core.Run(second, ws)
	acc.replayNS += tr.End(id)
	if err != nil {
		return fmt.Errorf("core.Run (second): %w", err)
	}
	acc.replayedSegs += cold.Spec.Stats().SegmentsReplayed - before
	acc.replaySegs += res2.Metrics.Segments
	return nil
}

// injectSeed fixes the fault the faults decomposition injects.
const injectSeed = 99

// checkCleanRun holds a fault-free full-coverage lockstep run to its
// invariants: no detection, every instruction checked, and the checkers
// together replaying exactly the instructions the lanes report checked.
func checkCleanRun(res *core.Result) error {
	if n := res.Detections(); n != 0 {
		return fmt.Errorf("fault-free run raised %d detections", n)
	}
	if c := res.Coverage(); c < 1 {
		return fmt.Errorf("full-coverage run covered %.4f of its instructions", c)
	}
	var checked, replayed uint64
	for i := range res.Lanes {
		checked += res.Lanes[i].CheckedInsts
	}
	for _, lane := range res.CheckersByLane {
		for _, ck := range lane {
			replayed += ck.Insts
		}
	}
	if checked != replayed {
		return fmt.Errorf("checkers replayed %d instructions, lanes checked %d", replayed, checked)
	}
	return nil
}

// fuCounts is the main core's functional-unit census, which the fault
// generator draws faulty units from.
func fuCounts() map[isa.Class]int {
	fu := make(map[isa.Class]int)
	for class, pool := range cpu.X2().FUs {
		fu[class] = pool.Count
	}
	return fu
}

// referenceInsts executes a program to halt and returns its retired
// instruction count.
func referenceInsts(prog *isa.Program) (int64, error) {
	m, err := emu.NewMachine(prog, machineSeed)
	if err != nil {
		return 0, err
	}
	return m.Run(0, nil)
}

// metrics turns the accumulated work into the per-layer metrics.
func (a *layerAcc) metrics() map[string]float64 {
	seg := distOf(a.segUS)
	diff := distOf(a.diffMS)
	// p99 needs at least 1010 programs; with fewer it reads 0.
	diffP99 := 0.0
	if diff.TailPct >= 99 {
		diffP99 = diff.Tail
	}
	m := map[string]float64{
		"workload.build_ms":               float64(a.buildNS) / 1e6,
		"emu.insts":                       float64(a.emuInsts),
		"emu.step_ns_per_inst":            ratio(float64(a.emuNS), float64(a.emuInsts)),
		"cpu.main.consume_ns_per_inst":    ratio(float64(a.mainNS), float64(a.mainInsts)),
		"cpu.main.ipc":                    ratio(float64(a.mainInsts), a.mainCycles),
		"cpu.checker.consume_ns_per_inst": ratio(float64(a.ckNS), float64(a.ckInsts)),
		"cpu.checker.ipc":                 ratio(float64(a.ckInsts), a.ckCycles),
		"cachesim.ns_per_access":          ratio(float64(a.cacheNS), float64(a.cacheAccesses)),
		"cachesim.accesses":               float64(a.cacheAccesses),
		"cachesim.l1d_miss_rate":          ratio(float64(a.l1dMiss), float64(a.l1dAcc)),
		"cachesim.l2_miss_rate":           ratio(float64(a.l2Miss), float64(a.l2Acc)),
		"branch.ns_per_resolve":           ratio(float64(a.brNS), float64(a.brLookups)),
		"branch.mispredict_rate":          ratio(float64(a.brMiss), float64(a.brLookups)),
		"core.check.ns_per_inst":          ratio(float64(a.checkNS), float64(a.checkInsts)),
		"core.check.segments":             float64(a.segments),
		"core.check.mismatches":           float64(a.mismatches),
		"core.check.segment_us.p50":       seg.P50,
		"core.check.segment_us.tail":      seg.Tail,
		"core.check.segment_us.tail_pct":  float64(seg.TailPct),
		"core.check.segment_us.n":         float64(seg.N),
		"core.lsl.bytes_per_inst":         ratio(float64(a.lslBytes), float64(a.emuInsts)),
		"core.lsl.lines_per_kinst":        ratio(float64(a.lslLines)*1000, float64(a.emuInsts)),
		"noc.ns_per_dispatch":             ratio(float64(a.nocNS), float64(a.dispatches)),
		"noc.max_link_util":               a.maxLink,
		"core.run.cold_ms":                float64(a.coldNS) / 1e6,
		"core.run.replay_ms":              float64(a.replayNS) / 1e6,
		"core.spec.replay_ratio":          ratio(float64(a.replayedSegs), float64(a.replaySegs)),
		"core.run.self_ns_per_inst":       ratio(float64(a.selfNS), float64(a.runInsts)),
		"fuzz.generate_us_per_program":    ratio(float64(a.genNS)/1e3, float64(a.generated)),
		"verify.screen_us_per_program":    ratio(float64(a.screenNS)/1e3, float64(a.screened)),
		"fuzz.differential_ms.p50":        diff.P50,
		"fuzz.differential_ms.p99":        diffP99,
		"fuzz.differential_ms.n":          float64(diff.N),
	}
	return m
}

// maxScreenAttempts bounds regeneration of a fuzz program that fails
// screening, as the fuzz campaign does.
const maxScreenAttempts = 8

// load generates the program and predecodes it. A fuzz program is then
// screened by the verifier and, like in the fuzz campaign, regenerated
// from the next seed of its stream when screening rejects it; load
// returns the seed that passed.
func (p decompProgram) load(tr *Tracer, acc *layerAcc) (*isa.Program, uint64, error) {
	seed := p.fuzzSeed
	for attempt := 1; ; attempt++ {
		id := tr.Begin("workload.build")
		genName := "spec.generate"
		if p.isFuzz {
			genName = "fuzz.generate"
		}
		gen := tr.Begin(genName)
		prog, err := p.build(seed)
		genNS := tr.End(gen)
		if err == nil {
			prog.Decoded()
		}
		acc.buildNS += tr.End(id)
		if err != nil || !p.isFuzz {
			return prog, seed, err
		}
		acc.genNS += genNS
		acc.generated++

		id = tr.Begin("verify.screen")
		_, err = fuzz.Screen(prog)
		acc.screenNS += tr.End(id)
		acc.screened++
		if err == nil {
			return prog, seed, nil
		}
		if attempt == maxScreenAttempts {
			return nil, 0, fmt.Errorf("screen: %w", err)
		}
		seed = fuzz.Mix(seed)
	}
}

// layerState is one program's emulator and every layer's state, built
// before any span opens so that construction is not timed as work.
type layerState struct {
	m             *emu.Machine
	hart          *emu.Hart
	n             int64 // instructions emulated
	batch         []emu.Effect
	ends          []emu.ArchState
	main, checker *cpu.Core
	hier          *cachesim.Hierarchy
	lineBytes     uint64
	lastLine      uint64
	haveLine      bool
	bu            *branch.Unit
	lspu          *core.LSPU
	seg           *core.Segment // the segment being cut
	cs            core.CheckScratch
	mesh          *noc.Mesh
	layout        *noc.Layout
}

func newLayerState(prog *isa.Program) (*layerState, error) {
	m, err := emu.NewMachine(prog, machineSeed)
	if err != nil {
		return nil, err
	}
	if len(m.Harts) != 1 {
		return nil, fmt.Errorf("decomposition takes single-hart programs, got %d harts", len(m.Harts))
	}
	st := &layerState{
		m: m, hart: m.Harts[0],
		batch:  make([]emu.Effect, batchInsts),
		bu:     branch.NewUnit(branch.NewDefaultTAGE(), 13),
		lspu:   core.NewLSPU(false),
		mesh:   noc.MustNew(noc.Fast()),
		layout: noc.DefaultLayout(),
	}
	st.seg = &core.Segment{Start: st.hart.State}
	if st.main, err = cpu.NewCore(cpu.X2(), 0, cpu.ModeMain); err != nil {
		return nil, err
	}
	if st.checker, err = cpu.NewCore(cpu.A510(), 0, cpu.ModeChecker); err != nil {
		return nil, err
	}
	x2 := cpu.X2()
	st.hier = &cachesim.Hierarchy{
		L1I: cachesim.MustNew(x2.L1I), L1D: cachesim.MustNew(x2.L1D), L2: cachesim.MustNew(x2.L2),
	}
	st.lineBytes = uint64(x2.L1I.LineBytes)
	return st, nil
}

// emulate steps up to fuel instructions into the batch buffer and
// returns the batch with the architectural state at every segment
// boundary it crossed.
func (st *layerState) emulate(fuel int, tr *Tracer, acc *layerAcc) ([]emu.Effect, []emu.ArchState, error) {
	st.ends = st.ends[:0]
	k := 0
	id := tr.Begin("emu.step")
	var err error
	for k < fuel && !st.hart.Halted {
		if err = st.m.StepHart(0, &st.batch[k]); err != nil {
			break
		}
		k++
		st.n++
		if st.n%segInsts == 0 {
			st.ends = append(st.ends, st.hart.State)
		}
	}
	ns := tr.End(id)
	acc.emuNS += ns
	acc.emuInsts += uint64(k)
	if err != nil {
		return nil, nil, fmt.Errorf("emulate: %w", err)
	}
	return st.batch[:k], st.ends, nil
}

// consume feeds the batch to the main-core and checker-core timing
// models and returns the time both took.
func (st *layerState) consume(batch []emu.Effect, tr *Tracer, acc *layerAcc) int64 {
	id := tr.Begin("cpu.main.consume")
	for i := range batch {
		st.main.Consume(&batch[i])
	}
	mainNS := tr.End(id)
	id = tr.Begin("cpu.checker.consume")
	for i := range batch {
		st.checker.Consume(&batch[i])
	}
	ckNS := tr.End(id)
	acc.mainNS += mainNS
	acc.ckNS += ckNS
	return mainNS + ckNS
}

// replayCachesAndBranches drives the main core's private caches and
// branch unit on their own with the batch's fetches, data accesses and
// control-flow outcomes.
func (st *layerState) replayCachesAndBranches(batch []emu.Effect, tr *Tracer, acc *layerAcc) {
	id := tr.Begin("cachesim.replay")
	for i := range batch {
		e := &batch[i]
		addr := isa.PCToAddr(e.PC)
		if line := addr / st.lineBytes; !st.haveLine || line != st.lastLine {
			st.hier.Fetch(addr)
			st.lastLine, st.haveLine = line, true
			acc.cacheAccesses++
		}
		for k := 0; k < e.NMem; k++ {
			st.hier.Data(e.Mem[k].Addr, e.Mem[k].Kind == emu.MemStore)
			acc.cacheAccesses++
		}
	}
	acc.cacheNS += tr.End(id)

	id = tr.Begin("branch.replay")
	for i := range batch {
		e := &batch[i]
		if e.Class == isa.ClassBranch || e.Class == isa.ClassJump {
			st.bu.Resolve(e.Inst.Op, e.PC, e.Taken, e.NextPC)
		}
	}
	acc.brNS += tr.End(id)
}

// cut appends the batch's log entries to the segment being cut, pushing
// them through the LSPU, and returns the segments the batch completed.
func (st *layerState) cut(batch []emu.Effect, ends []emu.ArchState, tr *Tracer, acc *layerAcc) []*core.Segment {
	var done []*core.Segment
	id := tr.Begin("core.lsl")
	for i := range batch {
		seg := st.seg
		seg.Insts++
		if e, ok := core.EntryFromEffect(&batch[i]); ok {
			seg.Entries = append(seg.Entries, e)
			size := e.SizeBytes(false)
			seg.LogBytes += size
			acc.lslBytes += uint64(size)
			seg.LogLines += st.lspu.Append(e)
		}
		if seg.Insts == segInsts {
			seg.LogLines += st.lspu.Flush()
			seg.End = ends[0]
			ends = ends[1:]
			done = append(done, seg)
			st.seg = &core.Segment{Seq: seg.Seq + 1, Start: seg.End}
		}
	}
	tr.End(id)
	return done
}

// checkAndDispatch replays each completed segment on a checker, one span
// per segment, then offers its log traffic to the NoC: one flow and one
// latency query per log line. It returns the time both took.
func (st *layerState) checkAndDispatch(prog *isa.Program, segs []*core.Segment, tr *Tracer, acc *layerAcc) int64 {
	if len(segs) == 0 {
		return 0
	}
	id := tr.Begin("core.check")
	for _, seg := range segs {
		sid := tr.Begin("core.check.segment")
		res := st.cs.CheckSegment(prog, seg, false, nil, nil)
		acc.segUS = append(acc.segUS, float64(tr.End(sid))/1e3)
		acc.checkInsts += res.Insts
		acc.segments++
		acc.mismatches += len(res.Mismatches)
	}
	checkNS := tr.End(id)
	acc.checkNS += checkNS

	nsPerInst := ratio(st.main.TimeNS(), float64(st.main.Insts()))
	id = tr.Begin("noc.dispatch")
	for _, seg := range segs {
		from, to := st.layout.Main(0), st.layout.Checker(0, seg.Seq)
		st.mesh.AddFlow(from, to, ratio(float64(seg.LogBytes), float64(seg.Insts)*nsPerInst))
		for l := 0; l < seg.LogLines; l++ {
			st.mesh.LatencyNS(from, to, core.LineBytes)
		}
		acc.dispatches++
	}
	nocNS := tr.End(id)
	acc.nocNS += nocNS
	return checkNS + nocNS
}
