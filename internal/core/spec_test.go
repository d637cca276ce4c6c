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

// TestSpecRecordReplayInvariance is the determinism contract of the
// parallel-in-time engine: with a speculation cache attached, both the
// recording run (speculative producer ahead of the timing stitch) and
// every subsequent replay run (stream served from the cache) must
// produce results byte-identical to the sequential engine, across wake
// policies, hash mode and unchecked operation.
func TestSpecRecordReplayInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"full-coverage-eager", func(c *Config) {}},
		{"full-coverage-late-wake", func(c *Config) { c.EagerWake = false }},
		{"hash-mode", func(c *Config) { c.HashMode = true }},
		{"no-checking", func(c *Config) { c.Checkers = nil }},
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

			cache := NewSpecCache()
			cfg.Spec = cache
			cfg.TimeShards = 4
			for i := 0; i < 3; i++ {
				if got := runSpec(t, cfg, ws); got != base {
					t.Fatalf("spec run %d diverged from sequential baseline:\n--- base ---\n%s\n--- got ---\n%s", i, base, got)
				}
			}
			st := cache.Stats()
			if st.StreamsRecorded == 0 {
				t.Error("no stream was recorded")
			}
			if st.StreamsReplayed == 0 {
				t.Error("no stream was replayed")
			}
			if st.SpecAborts != 0 {
				t.Errorf("clean runs raised %d speculation aborts", st.SpecAborts)
			}
		})
	}
}

// TestSpecTimeShardInvariance pins the shard-count contract: TimeShards
// changes wall-clock behaviour only. Results must be byte-identical to
// the sequential engine at every shard depth and worker count, both
// from a fresh cache (record mode) and from a shared one (replay mode).
func TestSpecTimeShardInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{
		{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
		{Name: "m1", Prog: prog},
	}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	base := runSpec(t, cfg, ws)

	shared := NewSpecCache()
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			cfg.CheckWorkers = workers
			cfg.TimeShards = shards

			cfg.Spec = NewSpecCache()
			if got := runSpec(t, cfg, ws); got != base {
				t.Errorf("fresh cache, TimeShards=%d CheckWorkers=%d diverged from baseline", shards, workers)
			}
			cfg.Spec = shared
			if got := runSpec(t, cfg, ws); got != base {
				t.Errorf("shared cache, TimeShards=%d CheckWorkers=%d diverged from baseline", shards, workers)
			}
		}
	}
	if st := shared.Stats(); st.StreamsReplayed == 0 {
		t.Error("shared cache never replayed a stream across shard counts")
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
		cfg.TimeShards = 4
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
	rec.TimeShards = 4
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
		cfg.TimeShards = 4
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
	cfg.TimeShards = 4
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("clean record run diverged from baseline")
	}

	// Corrupt the third replayed segment's entry state. Replay-mode
	// divergence has no in-run fallback (the main core's caches were fed
	// from the stream, not live execution), so this must escalate to the
	// run-level rerun.
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

// TestSpecRecordDivergenceInRunFallback forces a continuity failure on a
// segment that carries a machine snapshot during a recording run: the
// lane must rewind to the committed boundary and continue on the legacy
// sequential path inside the same run, still matching the baseline; the
// abandoned recording must not be published.
func TestSpecRecordDivergenceInRunFallback(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.InterruptIntervalInsts = 500
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cfg.Spec = cache
	cfg.TimeShards = 4
	corrupted := 0
	cache.testCorrupt = func(laneIdx, seq int, rs *recSeg) {
		// TimeShards=4 snapshots every fourth produced segment; corrupt
		// the entry state of one such segment while its snapshot still
		// matches the committed boundary.
		if seq == 8 && rs.snap != nil && corrupted == 0 {
			corrupted++
			rs.start.X[6] ^= 2
		}
	}
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("in-run fallback diverged from the sequential result")
	}
	if corrupted == 0 {
		t.Fatal("corruption hook never hit a snapshot-bearing segment; adjust the test's seq")
	}
	st := cache.Stats()
	if st.SpecAborts == 0 {
		t.Error("no speculation abort was counted")
	}
	if st.StreamsRecorded != 0 {
		t.Error("an aborted recording was published")
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
