package core

// Functional-stream memoisation: record a lane's committed instruction
// stream once, replay it across runs.
//
// A lane's simulated outcome factors into two halves with a one-way
// dependency. The FUNCTIONAL half — the instruction stream and the
// logged load/store entries — is a pure function of (program, hart,
// seed, instruction budget): the emulator never reads a clock, and
// full-coverage checkpoints stall rather than skip, so timing feeds
// nothing back into functional execution. The TIMING half (main-core
// cycles, NoC flows, LLC occupancy, checker schedules) consumes the
// functional stream but cannot perturb it.
//
// LSL capacity, the checkpoint timeout, the interrupt interval, hash
// mode and whether checking is on at all shape only WHERE the sequence
// is cut into segments — the emulator never observes a boundary. A
// recorded stream is therefore keyed by the sequence inputs only, and a
// replay run RE-CUTS its own segment boundaries: the live runSegment
// loop runs unmodified (checker acquisition, LSPU packing, counters,
// warmup/interrupt windows, hash digests), but draws its effects from a
// cursor over the recorded stream instead of the emulator.
// Reconstruction is exact for every field the timing models read
// (cpu.Core.Consume and the checker-side consume use only PC, Inst,
// Class, Dec, NextPC, Taken, Halted, Mem[:NMem] addresses/kinds,
// WroteInt, WroteFP), so replayed timing is bit-identical to live
// timing. One stream recorded under full coverage serves opportunistic
// sweeps, hash-mode toggles, capacity sweeps and unchecked baselines —
// and vice versa.
//
// Recording is inline: a recording lane runs the ordinary runSegment
// loop on its own machine, and a tap in accountEffect — the one point
// both the per-instruction and the batched paths pass through — appends
// each committed effect's PC, outcome flags and a private copy of its
// log entry. Every live segment close seals the captured effects into a
// recSeg. The recording is published when the lane finished with zero
// detections: replay runs synthesise clean verdicts instead of
// re-verifying, which is sound precisely because unclean streams never
// enter the cache.
//
// The recording, kept in a SpecCache, thereby memoises the functional
// stream ACROSS runs: sweeps that vary any timing- or boundary-side
// parameter (frequency, NoC, worker counts, checker counts and
// capacities, operating mode, hash mode) replay a stream recorded once
// instead of re-emulating, and a per-main-geometry MicroTrace memoises
// the main core's private-cache hit levels and branch verdicts on top
// (cpu/microtrace.go) — valid across re-cut boundaries because consume
// order is commit order, which is stream order.
//
// Safety: every recorded segment carries its entry and exit
// architectural state, and a replay lane enters a segment only if its
// entry state extends the committed predecessor bit-for-bit. A stream
// that fails that check, runs dry, or outlives its micro trace is
// evicted and the run is rerun without the cache (ErrSpecDiverged), so
// a replay defect can cost time, never correctness.

import (
	"errors"
	"sync"

	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/obs"
)

// ErrSpecDiverged reports that a replayed stream failed its continuity
// check. Run (the package-level wrapper) catches it and reruns the
// system without the speculation cache.
var ErrSpecDiverged = errors.New("core: replayed stream diverged from committed state")

// DefaultSpecCacheBytes bounds a SpecCache's recorded-stream memory.
const DefaultSpecCacheBytes = 1 << 30

// Per-instruction outcome flags in recSeg.flags.
const (
	specTaken    uint8 = 1 << 0
	specWroteInt uint8 = 1 << 1
	specWroteFP  uint8 = 1 << 2
	specHasEntry uint8 = 1 << 3
	specHalted   uint8 = 1 << 4
)

// streamKey identifies one lane's functional stream: exactly the
// inputs the instruction SEQUENCE depends on, and nothing that merely
// moves segment boundaries (capacity, timeout, interrupt interval,
// hash mode, checking) — replay runs re-cut boundaries live.
type streamKey struct {
	prog *isa.Program
	hart int
	seed uint64
	// maxInsts and warmupInsts bound the stream's length (the budget is
	// their sum); interrupts and checkpoints have no architectural
	// effect, so nothing else reaches the emulator.
	maxInsts    int64
	warmupInsts int64
}

// recSeg is one recorded segment: everything needed to reconstruct the
// committed effect sequence between two architectural states.
type recSeg struct {
	start emu.ArchState
	end   emu.ArchState
	// pcs[i] is instruction i's PC; flags[i] its outcome bits. entries
	// holds the logged entries in commit order, with exact-size private
	// backing (never aliased by later segments).
	pcs     []uint32
	flags   []uint8
	entries []Entry
}

func (rs *recSeg) memBytes() int {
	n := 4*len(rs.pcs) + len(rs.flags) + 40*len(rs.entries) + 256
	for i := range rs.entries {
		n += 24 * len(rs.entries[i].Ops)
	}
	return n
}

// recStream is every recorded segment of one functional stream, plus
// the per-main-geometry micro traces recorded over it.
type recStream struct {
	segs     []*recSeg
	complete bool
	// recording marks an in-flight exclusive recording claim.
	recording bool
	bytes     int
	// micro maps a main-core geometry key to a complete MicroTrace over
	// this stream; microRec marks in-flight recording claims.
	micro    map[string]*cpu.MicroTrace
	microRec map[string]bool
}

// SpecCache memoises functional streams and micro traces across runs.
// One cache is shared by every run of an experiment engine; all state
// is guarded by mu, so concurrent runs may record and replay freely.
type SpecCache struct {
	mu       sync.Mutex
	streams  map[streamKey]*recStream
	bytes    int
	maxBytes int

	stats obs.SpecStats

	// testCorrupt, when non-nil, mutates segments as a replay lane
	// enters them — the forced-divergence hook for fallback tests.
	testCorrupt func(laneIdx, seq int, rs *recSeg)
}

// NewSpecCache returns an empty cache with the default byte budget.
func NewSpecCache() *SpecCache {
	return &SpecCache{
		streams:  make(map[streamKey]*recStream),
		maxBytes: DefaultSpecCacheBytes,
	}
}

// SetLimit caps recorded-stream memory: once exceeded, new recordings
// are refused (existing streams keep replaying).
func (c *SpecCache) SetLimit(bytes int) {
	c.mu.Lock()
	c.maxBytes = bytes
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache's speculation counters.
func (c *SpecCache) Stats() obs.SpecSnapshot { return c.stats.Snapshot() }

// Claim outcomes.
const (
	claimNone = iota
	claimRecord
	claimReplay
)

// claimStream resolves how a lane uses the cache: replay a complete
// stream, record a fresh one (exclusive, only if the caller's
// configuration can produce boundaries deterministically — canRecord),
// or run live unrecorded. The protocol never blocks: a stream being
// recorded elsewhere, or a cache over budget, degrades to live
// execution.
func (c *SpecCache) claimStream(key streamKey, canRecord bool) (*recStream, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.streams[key]
	if st != nil && st.complete {
		c.stats.StreamsReplayed.Add(1)
		return st, claimReplay
	}
	if !canRecord {
		return nil, claimNone
	}
	if st == nil {
		if c.bytes >= c.maxBytes {
			return nil, claimNone
		}
		st = &recStream{}
		c.streams[key] = st
	}
	if st.recording {
		return nil, claimNone
	}
	st.recording = true
	return st, claimRecord
}

// releaseStream abandons a recording claim (run error, unclean recording).
// Only the recording lane itself can hold claims on an incomplete
// stream, so dropping the entry is safe.
func (c *SpecCache) releaseStream(key streamKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.streams[key]; st != nil && !st.complete {
		delete(c.streams, key)
	}
}

// publishStream completes a recording, making the stream replayable.
func (c *SpecCache) publishStream(key streamKey, segs []*recSeg) {
	n := 0
	for _, rs := range segs {
		n += rs.memBytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.streams[key]
	if st == nil || st.complete {
		return
	}
	st.segs = segs
	st.bytes = n
	st.recording = false
	st.complete = true
	c.bytes += n
	c.stats.StreamsRecorded.Add(1)
}

// evictStream drops a stream (replay divergence hygiene): a stream
// that failed the continuity check must not keep serving replays.
func (c *SpecCache) evictStream(key streamKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.streams[key]; st != nil {
		if st.complete {
			c.bytes -= st.bytes
		}
		delete(c.streams, key)
	}
}

// claimMicro resolves a lane's micro-trace use for one main geometry:
// replay a complete trace, record a fresh one (exclusive), or neither.
func (c *SpecCache) claimMicro(st *recStream, geom string) (tr *cpu.MicroTrace, replay, record bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := st.micro[geom]; t != nil {
		c.stats.MicroReplayed.Add(1)
		return t, true, false
	}
	if st.microRec[geom] {
		return nil, false, false
	}
	if st.microRec == nil {
		st.microRec = make(map[string]bool)
	}
	st.microRec[geom] = true
	return nil, false, true
}

// releaseMicro abandons a micro recording claim.
func (c *SpecCache) releaseMicro(st *recStream, geom string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(st.microRec, geom)
}

// publishMicro completes a micro recording.
func (c *SpecCache) publishMicro(st *recStream, geom string, tr *cpu.MicroTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.micro == nil {
		st.micro = make(map[string]*cpu.MicroTrace)
	}
	st.micro[geom] = tr
	delete(st.microRec, geom)
	c.stats.MicroRecorded.Add(1)
}

// laneSpec is one lane's speculation state for the current run.
type laneSpec struct {
	mode   int // claimRecord or claimReplay
	key    streamKey
	stream *recStream
	dec    []isa.DecInst

	// prevEnd is the committed architectural boundary; every replayed
	// segment must start exactly here.
	prevEnd   emu.ArchState
	delivered int
	sawEnd    bool

	// Replay state: cur walks the recorded stream in place of the
	// emulator (specNext); segCur is cur's value at the current
	// segment's start, snapshotted so a pending check can re-walk
	// exactly the effects the segment consumed.
	cur    specCursor
	segCur specCursor

	// Record state: the tap's reused scratch for the open segment (pcs,
	// flags, ents with ops backing their Ops), sealed into exact-size
	// private copies appended to segs at every segment close.
	pcs   []uint32
	flags []uint8
	ents  []Entry
	ops   []MemRec
	segs  []*recSeg

	// Micro-trace recording in flight (nil when replaying or not
	// claimed).
	microRec  *cpu.MicroTrace
	microGeom string
}

// tap captures one committed effect on a recording lane: its PC,
// outcome flags and, when it carries memory operations or a
// non-repeatable value, a private copy of its log entry. Entries are
// captured on unchecked lanes too: they carry the memory operations the
// effect reconstruction needs.
//
//paralint:hotpath
func (sp *laneSpec) tap(eff *emu.Effect) {
	fl := uint8(0)
	if eff.Taken {
		fl |= specTaken
	}
	if eff.WroteInt {
		fl |= specWroteInt
	}
	if eff.WroteFP {
		fl |= specWroteFP
	}
	if eff.Halted {
		fl |= specHalted
	}
	if entry, ok := EntryFromEffectArena(eff, &sp.ops); ok {
		fl |= specHasEntry
		//paralint:allow(arena append: scratch is reused across segments)
		sp.ents = append(sp.ents, entry)
	}
	//paralint:allow(arena append: scratch is reused across segments)
	sp.pcs = append(sp.pcs, uint32(eff.PC))
	//paralint:allow(arena append: scratch is reused across segments)
	sp.flags = append(sp.flags, fl)
}

// seal closes the recording lane's open segment between the given
// architectural states. The scratch arenas are reused for the next
// segment, so the recorded segment gets exact-size private copies and
// never aliases them.
func (sp *laneSpec) seal(start, end emu.ArchState) {
	rs := &recSeg{
		start: start,
		end:   end,
		pcs:   append([]uint32(nil), sp.pcs...),
		flags: append([]uint8(nil), sp.flags...),
	}
	ops := append([]MemRec(nil), sp.ops...)
	rs.entries = make([]Entry, len(sp.ents))
	o := 0
	for i := range sp.ents {
		n := len(sp.ents[i].Ops)
		rs.entries[i] = Entry{Kind: sp.ents[i].Kind, Ops: ops[o : o+n : o+n]}
		o += n
	}
	sp.segs = append(sp.segs, rs)
	sp.pcs = sp.pcs[:0]
	sp.flags = sp.flags[:0]
	sp.ents = sp.ents[:0]
	sp.ops = sp.ops[:0]
}

// laneSpecEligible reports what lane l may do with the speculation
// cache: replay a recorded stream, and additionally record a fresh one.
//
// Replay requires only that the lane's instruction sequence is a pure
// function of the streamKey inputs. Interceptors mutate execution;
// recovery can empty the checker pool mid-run and consumes verdicts
// synchronously; divergent mode keeps a private memory image in
// lockstep with verification; multi-hart processes interleave through
// shared memory under timing control; and a checked replay synthesises
// clean verdicts, which needs the pipelined dispatch path. Boundary
// shape does NOT matter for replay — the live runSegment loop re-cuts
// boundaries over the cursor, so opportunistic mode, sampling and
// non-uniform pool capacities all replay fine.
//
// Recording is narrower: checked recorders need full coverage and a
// uniform pool capacity (BoundaryLSLFull must not depend on which
// checker was allocated). The inline tap records whatever boundaries
// the live loop cuts, so neither rule is needed for correctness; they
// stay because widening them changes which runs hit the cache.
func (s *System) laneSpecEligible(l *lane) (replay, record bool) {
	if s.cfg.MainInterceptor != nil || s.cfg.CheckerInterceptor != nil ||
		s.cfg.Recovery.Enabled {
		return false, false
	}
	if len(l.proc.mach.Harts) != 1 || l.div != nil {
		return false, false
	}
	if !s.checking() {
		return true, true
	}
	if !s.pipelined {
		return false, false
	}
	record = s.cfg.Mode == ModeFullCoverage
	if record {
		cks := l.alloc.Checkers()
		cap0 := s.lslCapacityLines(l, cks[0])
		for _, ck := range cks[1:] {
			if s.lslCapacityLines(l, ck) != cap0 {
				record = false
				break
			}
		}
	}
	return true, record
}

// streamKeyFor builds lane l's stream key.
func (s *System) streamKeyFor(l *lane) streamKey {
	return streamKey{
		prog:        l.proc.w.Prog,
		hart:        l.hart,
		seed:        s.cfg.Seed,
		maxInsts:    l.proc.w.MaxInsts,
		warmupInsts: l.proc.w.WarmupInsts,
	}
}

// initSpec decides, per lane, whether this run replays a recorded
// stream, records a fresh one inline, or runs without the cache
// (l.spec stays nil).
func (s *System) initSpec() {
	c := s.cfg.Spec
	for _, l := range s.lanes {
		replayOK, recordOK := s.laneSpecEligible(l)
		if !replayOK {
			continue
		}
		key := s.streamKeyFor(l)
		st, mode := c.claimStream(key, recordOK)
		if mode == claimNone {
			continue
		}
		sp := &laneSpec{
			mode: mode, key: key, stream: st,
			dec:     l.proc.w.Prog.Decoded(),
			prevEnd: l.proc.mach.Harts[l.hart].State,
		}
		if mode == claimReplay {
			sp.cur = specCursor{dec: sp.dec, segs: st.segs}
		}
		// Micro-trace claim for this lane's main-core geometry. Traces
		// exist only on complete streams, so a record-mode lane can only
		// ever record one (its main consumes live), and a replay lane
		// records one the first time a geometry replays this stream.
		mc := l.main.Config()
		geom := cpu.GeometryKey(&mc)
		if tr, replay, record := c.claimMicro(st, geom); replay {
			l.main.SetMicroReplay(tr)
		} else if record {
			sp.microRec = &cpu.MicroTrace{}
			sp.microGeom = geom
			l.main.SetMicroRecord(sp.microRec)
		}
		l.spec = sp
	}
}

// specDiverged handles a replay lane whose stream failed: a continuity
// check, a dry stream or an exhausted micro trace. The stream is broken,
// so it is evicted (later runs re-record instead of re-aborting), and
// the run aborts with ErrSpecDiverged, which the Run wrapper turns into
// a rerun without the cache.
func (s *System) specDiverged(l *lane) error {
	sp := l.spec
	c := s.cfg.Spec
	c.stats.SpecAborts.Add(1)
	s.releaseLaneSpec(l)
	l.spec = nil
	c.evictStream(sp.key)
	return ErrSpecDiverged
}

// releaseLaneSpec abandons the lane's cache claims and detaches the
// main core's micro-trace hooks.
func (s *System) releaseLaneSpec(l *lane) {
	sp := l.spec
	c := s.cfg.Spec
	if sp.mode == claimRecord {
		c.releaseStream(sp.key)
	}
	if sp.microRec != nil {
		c.releaseMicro(sp.stream, sp.microGeom)
		sp.microRec = nil
	}
	l.main.SetMicroRecord(nil)
}

// abortSpec drops every lane's speculation claims on a failed run.
func (s *System) abortSpec() {
	for _, l := range s.lanes {
		if l.spec == nil {
			continue
		}
		s.releaseLaneSpec(l)
		l.spec = nil
	}
}

// publishSpec publishes completed recordings at collection time, after
// every pending check has joined. A recording is published only if its
// lane finished with zero detections: replay runs synthesise clean
// verdicts instead of re-verifying, which is sound precisely because
// unclean streams never enter the cache (eligibility already excludes
// every fault-injection path, so a detection here means a simulator
// defect — degrade to live runs).
func (s *System) publishSpec() {
	c := s.cfg.Spec
	for _, l := range s.lanes {
		sp := l.spec
		if sp == nil || !sp.sawEnd {
			continue
		}
		if sp.mode == claimRecord {
			if l.res.Detections == 0 {
				c.publishStream(sp.key, sp.segs)
			} else {
				c.releaseStream(sp.key)
			}
		}
		if sp.microRec != nil {
			c.publishMicro(sp.stream, sp.microGeom, sp.microRec)
			sp.microRec = nil
		}
	}
}

// effIter reconstructs the committed effect sequence from a recorded
// segment. Reconstruction is bit-equivalent, for every field the
// timing consumers read, to the effects the live emulator produced:
// PC/Inst/Class/Dec come from the decoded program at the recorded PC,
// NextPC is the next recorded PC (the end-state PC for the last
// instruction — exact because the emulator sets State.PC = eff.NextPC
// after every step), Taken/WroteInt/WroteFP/Halted come from the
// recorded flags, and the memory operations come from the recorded log
// entry.
type effIter struct {
	dec []isa.DecInst
	rs  *recSeg
	i   int
	ei  int
}

func (it *effIter) next(eff *emu.Effect) bool {
	rs := it.rs
	if it.i >= len(rs.pcs) {
		return false
	}
	pc := uint64(rs.pcs[it.i])
	fl := rs.flags[it.i]
	d := &it.dec[pc]
	// Field-wise assignment instead of a struct literal: zeroing the
	// whole Effect (dominated by its Mem array) per instruction is
	// measurable on the replay hot path. Every field a consumer guards
	// reads behind (NMem, NonRepeat) is reset here; stale Mem/
	// NonRepeatVal bytes beyond those guards are never read.
	eff.PC = pc
	eff.Inst = d.Inst
	eff.Class = d.Class
	eff.Dec = d
	eff.Taken = fl&specTaken != 0
	eff.WroteInt = fl&specWroteInt != 0
	eff.WroteFP = fl&specWroteFP != 0
	eff.Halted = fl&specHalted != 0
	eff.NonRepeat = false
	eff.NMem = 0
	if it.i+1 < len(rs.pcs) {
		eff.NextPC = uint64(rs.pcs[it.i+1])
	} else {
		eff.NextPC = rs.end.PC
	}
	if fl&specHasEntry != 0 {
		e := &rs.entries[it.ei]
		it.ei++
		if e.Kind == EntryNonRepeat {
			eff.NonRepeat = true
			eff.NonRepeatVal = e.Ops[0].Data
		} else {
			for j := range e.Ops {
				op := &e.Ops[j]
				kind := emu.MemStore
				if op.Load {
					kind = emu.MemLoad
				}
				eff.Mem[j] = emu.MemOp{Kind: kind, Addr: op.Addr, Size: op.Size, Data: op.Data}
			}
			eff.NMem = len(e.Ops)
		}
	}
	it.i++
	return true
}

// specCursor walks a recorded stream's flat effect sequence, crossing
// recorded-segment joints transparently — the replay run's own segment
// boundaries are cut by the live runSegment loop, independent of where
// the recording run happened to cut its checkpoints. A plain value
// copy snapshots a position: a pending check re-walks its segment's
// effects from such a snapshot, hook-free, on a worker goroutine
// (recorded segments are immutable once published).
type specCursor struct {
	dec  []isa.DecInst
	segs []*recSeg
	k    int
	it   effIter
}

// done reports stream exhaustion.
func (cu *specCursor) done() bool {
	return (cu.it.rs == nil || cu.it.i >= len(cu.it.rs.pcs)) && cu.k >= len(cu.segs)
}

// next reconstructs the next committed effect, entering the next
// recorded segment as needed. Hook-free and continuity-blind: the
// lane-side step with divergence checks is System.specNext.
func (cu *specCursor) next(eff *emu.Effect) bool {
	for cu.it.rs == nil || cu.it.i >= len(cu.it.rs.pcs) {
		if cu.k >= len(cu.segs) {
			return false
		}
		cu.it = effIter{dec: cu.dec, rs: cu.segs[cu.k]}
		cu.k++
	}
	return cu.it.next(eff)
}

// specNext is runSegment's functional step on a replay lane: it
// reconstructs the next committed effect from the recorded stream
// instead of stepping the emulator. Entering a recorded segment fires
// the continuity check — its entry state must extend the committed
// predecessor bit-for-bit — and the forced-divergence test hook. A
// broken stream ends in specDiverged: eviction plus ErrSpecDiverged,
// which the Run wrapper turns into a rerun without the cache.
func (s *System) specNext(l *lane, eff *emu.Effect) (bool, error) {
	sp := l.spec
	cu := &sp.cur
	for cu.it.rs == nil || cu.it.i >= len(cu.it.rs.pcs) {
		if cu.k >= len(cu.segs) {
			return false, nil
		}
		rs := cu.segs[cu.k]
		if hook := s.cfg.Spec.testCorrupt; hook != nil {
			hook(l.idx, sp.delivered, rs)
		}
		sp.delivered++
		if rs.start != sp.prevEnd {
			return false, s.specDiverged(l)
		}
		sp.prevEnd = rs.end
		s.cfg.Spec.stats.SegmentsReplayed.Add(1)
		cu.it = effIter{dec: cu.dec, rs: rs}
		cu.k++
	}
	return cu.it.next(eff), nil
}
