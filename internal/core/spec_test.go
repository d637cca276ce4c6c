package core

import (
	"testing"

	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// checkSegmentFixture executes 2000 instructions of the mixed program
// and packages them as one verifiable segment.
func checkSegmentFixture(t *testing.T) (*isa.Program, *Segment) {
	t.Helper()
	prog := mixedProgram(10000)
	mach, err := emu.NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	hart := mach.Harts[0]
	seg := &Segment{Hart: 0, Start: hart.State}
	var eff emu.Effect
	for seg.Insts < 2000 {
		if err := mach.StepHart(0, &eff); err != nil {
			t.Fatal(err)
		}
		seg.Insts++
		if e, ok := EntryFromEffect(&eff); ok {
			seg.Entries = append(seg.Entries, e)
		}
	}
	seg.End = hart.State
	return prog, seg
}

// runSpec runs cfg over ws and returns the flattened result string.
func runSpec(t *testing.T, cfg Config, ws []Workload) string {
	t.Helper()
	res, err := Run(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(res)
}

// TestSpecRecordReplayInvariance is the determinism contract of stream
// record/replay: with a speculation cache attached, the recording run
// (the live segment loop with the recording tap) and every later replay
// run (stream served from the cache) must each render byte-equal to a
// run without the cache — across wake policies, hash mode, unchecked
// lanes and overlapped checks. The non-pipelined strategies must leave
// the cache untouched and still match.
func TestSpecRecordReplayInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	cases := []struct {
		name string
		mut  func(*Config)
		// inert marks configurations whose checked lanes are not
		// cache-eligible: nothing may be recorded or replayed.
		inert bool
	}{
		{"full-coverage-eager", func(c *Config) {}, false},
		{"full-coverage-late-wake", func(c *Config) { c.EagerWake = false }, false},
		{"hash-mode", func(c *Config) { c.HashMode = true }, false},
		{"no-checking", func(c *Config) { c.Checkers = nil }, false},
		{"check-workers-4", func(c *Config) { c.CheckWorkers = 4 }, false},
		{"chunk-replay", func(c *Config) { c.Strategy = StrategyChunkReplay }, true},
		{"relaxed", func(c *Config) { c.Strategy = StrategyRelaxed }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := []Workload{
				{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
				{Name: "m1", Prog: prog},
			}
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			tc.mut(&cfg)
			base := runSpec(t, cfg, ws)

			// The two lanes differ in budget, so they are two streams.
			wantRec, wantReplay := uint64(len(ws)), uint64(2*len(ws))
			if tc.inert {
				wantRec, wantReplay = 0, 0
			}
			cache := NewSpecCache()
			cfg.Spec = cache
			if got := runSpec(t, cfg, ws); got != base {
				t.Fatalf("recording run diverged from the no-cache run:\n--- base ---\n%s\n--- got ---\n%s", base, got)
			}
			if st := cache.Stats(); st.StreamsRecorded != wantRec || st.StreamsReplayed != 0 {
				t.Fatalf("first run recorded %d and replayed %d streams, want %d and 0", st.StreamsRecorded, st.StreamsReplayed, wantRec)
			}
			for i := 1; i <= 2; i++ {
				if got := runSpec(t, cfg, ws); got != base {
					t.Fatalf("replay run %d diverged from the no-cache run:\n--- base ---\n%s\n--- got ---\n%s", i, base, got)
				}
			}
			st := cache.Stats()
			if st.StreamsRecorded != wantRec || st.StreamsReplayed != wantReplay {
				t.Errorf("recorded %d and replayed %d streams over three runs, want %d and %d",
					st.StreamsRecorded, st.StreamsReplayed, wantRec, wantReplay)
			}
			if st.SpecAborts != 0 {
				t.Errorf("clean runs raised %d speculation aborts", st.SpecAborts)
			}
		})
	}
}

// TestSpecCrossFrequencyStreamReuse exercises the cross-run memoization
// the cache exists for: runs differing only in timing-side parameters
// (main frequency here) share one recorded functional stream, and each
// still matches its own sequential baseline exactly.
func TestSpecCrossFrequencyStreamReuse(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}
	cache := NewSpecCache()
	for _, freq := range []float64{2.0, 1.25, 3.0} {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		cfg.MainFreqGHz = freq
		base := runSpec(t, cfg, ws)
		cfg.Spec = cache
		if got := runSpec(t, cfg, ws); got != base {
			t.Errorf("MainFreqGHz=%v: spec run diverged from its sequential baseline", freq)
		}
	}
	st := cache.Stats()
	if st.StreamsRecorded != 1 {
		t.Errorf("recorded %d streams across the frequency sweep, want 1 (timing changes must not split the stream)", st.StreamsRecorded)
	}
	if st.StreamsReplayed < 2 {
		t.Errorf("replayed %d streams, want >= 2 (the later frequencies must reuse the first recording)", st.StreamsReplayed)
	}
	if st.MicroReplayed < 2 {
		t.Errorf("replayed %d micro traces, want >= 2 (same main geometry at every frequency)", st.MicroReplayed)
	}
}

// TestSpecCrossConfigStreamReuse pins the payoff of the determinism
// factorization: the instruction sequence depends only on (program, hart,
// seed, budget, warmup), while checking configuration shapes segment
// boundaries — which replay re-cuts live. One stream recorded under
// full-coverage checking must therefore serve hash mode, opportunistic
// checking, a dedicated SRAM log and unchecked operation, each matching
// its own sequential baseline, without a second recording.
func TestSpecCrossConfigStreamReuse(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}

	cache := NewSpecCache()
	rec := DefaultConfig(a510Checkers(2, 2.0))
	recBase := runSpec(t, rec, ws)
	rec.Spec = cache
	if got := runSpec(t, rec, ws); got != recBase {
		t.Fatal("recording run diverged from its sequential baseline")
	}

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"hash-mode", func(c *Config) { c.HashMode = true }},
		{"opportunistic", func(c *Config) { c.Mode = ModeOpportunistic }},
		{"opportunistic-sampled", func(c *Config) { c.Mode = ModeOpportunistic; c.SamplePeriod = 3 }},
		{"dedicated-lsl", func(c *Config) { c.DedicatedLSLBytes = 3 << 10 }},
		{"unchecked", func(c *Config) { c.Checkers = nil }},
	}
	for _, v := range variants {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		v.mut(&cfg)
		base := runSpec(t, cfg, ws)
		cfg.Spec = cache
		if got := runSpec(t, cfg, ws); got != base {
			t.Errorf("%s: replay from the full-coverage recording diverged from its sequential baseline", v.name)
		}
	}
	st := cache.Stats()
	if st.StreamsRecorded != 1 {
		t.Errorf("recorded %d streams across the config sweep, want 1 (boundary-shaping config must not split the stream)", st.StreamsRecorded)
	}
	if st.StreamsReplayed < uint64(len(variants)) {
		t.Errorf("replayed %d streams, want >= %d (every variant must reuse the one recording)", st.StreamsReplayed, len(variants))
	}
	if st.SpecAborts != 0 {
		t.Errorf("clean cross-config replays raised %d speculation aborts", st.SpecAborts)
	}
}

// TestSpecReplayDivergenceFallsBack forces a continuity-check failure on
// a cached stream: the run must abort speculation, rerun sequentially,
// and still produce the baseline result; the broken stream must be
// evicted so the next run re-records rather than re-aborting.
func TestSpecReplayDivergenceFallsBack(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	// Short interrupt interval: plenty of segments for mid-stream
	// corruption.
	cfg.InterruptIntervalInsts = 500
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cfg.Spec = cache
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("clean record run diverged from baseline")
	}

	// Corrupt the third replayed segment's entry state: the continuity
	// check must catch it and escalate to the run-level rerun.
	corrupted := 0
	cache.testCorrupt = func(laneIdx, seq int, rs *recSeg) {
		if seq == 3 {
			corrupted++
			rs.start.X[5] ^= 1
		}
	}
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("corrupted replay did not fall back to the sequential result")
	}
	if corrupted == 0 {
		t.Fatal("corruption hook never fired; the stream has too few segments for this test")
	}
	if st := cache.Stats(); st.SpecAborts == 0 {
		t.Error("no speculation abort was counted")
	}

	// The broken stream must be gone: a clean run re-records.
	cache.testCorrupt = nil
	before := cache.Stats().StreamsRecorded
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("post-eviction run diverged from baseline")
	}
	if after := cache.Stats().StreamsRecorded; after != before+1 {
		t.Errorf("evicted stream was not re-recorded (recorded %d -> %d)", before, after)
	}
}

// TestSpecMicroTraceExhaustionFallsBack truncates a published micro
// trace: a replay run drawing on it runs the trace dry mid-stream. That
// must never crash the run — the main core raises its sticky exhaustion
// flag, the lane turns it into ErrSpecDiverged at segment close, and
// the Run wrapper reruns sequentially to the baseline result. The
// broken stream (and its traces) must be evicted so the next run
// re-records.
func TestSpecMicroTraceExhaustionFallsBack(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.InterruptIntervalInsts = 500
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cfg.Spec = cache
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("clean record run diverged from baseline")
	}
	if st := cache.Stats(); st.MicroRecorded != 1 {
		t.Fatalf("recorded %d micro traces, want 1", st.MicroRecorded)
	}
	truncated := 0
	for _, st := range cache.streams {
		for geom, tr := range st.micro {
			st.micro[geom] = tr.Prefix(tr.Len() / 2)
			truncated++
		}
	}
	if truncated != 1 {
		t.Fatalf("truncated %d micro traces, want 1", truncated)
	}

	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("replay over a truncated micro trace did not fall back to the sequential result")
	}
	st := cache.Stats()
	if st.MicroReplayed != 1 || st.SpecAborts != 1 {
		t.Errorf("micro replays %d, aborts %d; want 1 and 1", st.MicroReplayed, st.SpecAborts)
	}
	if len(cache.streams) != 0 {
		t.Fatal("the stream with the broken micro trace was not evicted")
	}
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("post-eviction run diverged from baseline")
	}
	if after := cache.Stats().StreamsRecorded; after != st.StreamsRecorded+1 {
		t.Errorf("evicted stream was not re-recorded (recorded %d -> %d)", st.StreamsRecorded, after)
	}
}

// TestCheckSegmentZeroAlloc pins the hot-path property the pipelined
// engine relies on: steady-state segment verification through a held
// CheckScratch performs zero heap allocations.
func TestCheckSegmentZeroAlloc(t *testing.T) {
	prog, seg := checkSegmentFixture(t)
	var cs CheckScratch
	allocs := testing.AllocsPerRun(20, func() {
		if res := cs.CheckSegment(prog, seg, false, nil, nil); res.Detected() {
			t.Fatalf("fixture segment failed verification: %+v", res.Mismatches)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckSegment allocated %.1f times per run, want 0", allocs)
	}
}
