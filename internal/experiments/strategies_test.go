package experiments

import (
	"bytes"
	"strings"
	"testing"

	"paraverser/internal/obs"
)

// strategyScale is the smallest scale that still gives every strategy a
// fault-injection campaign and clean slowdown runs over three suites.
func strategyScale() Scale {
	return Scale{
		Insts:           40_000,
		Warmup:          20_000,
		FaultTrials:     2,
		FaultHorizon:    60_000,
		FaultBenchmarks: []string{"exchange2"},
		GAPScale:        8,
		GAPEdgeFactor:   6,
		ParsecScale:     200,
	}
}

// TestStrategyStudyDeterminism is the head-to-head experiment's
// contract: the rendered table is byte-identical at any campaign worker
// count (trial seeds derive from the base seed; results land in trial
// order) and the study's shape holds — all four strategies reported,
// campaigns paired trial-for-trial, finite cost columns.
func TestStrategyStudyDeterminism(t *testing.T) {
	sc := strategyScale()
	var want string
	for i, workers := range []int{1, 4} {
		e := NewEngine(workers)
		r, err := strategyStudy(e, sc, 11, 4, workers)
		if err != nil {
			t.Fatalf("strategy study at %d workers: %v", workers, err)
		}
		got := r.Table()
		if i == 0 {
			want = got

			if len(r.Order) != 4 {
				t.Fatalf("study covers %d strategies, want 4", len(r.Order))
			}
			trials := len(r.Campaigns[r.Order[0]].Trials)
			for _, name := range r.Order {
				camp := r.Campaigns[name]
				if camp == nil || len(camp.Trials) != trials {
					t.Fatalf("%s campaign not paired: %v", name, camp)
				}
				if !strings.Contains(got, name) {
					t.Errorf("table missing strategy %q:\n%s", name, got)
				}
				if ovh := r.EnergyOverheadPct[name]; ovh <= 0 {
					t.Errorf("%s energy overhead %.2f%%, want > 0", name, ovh)
				}
			}
			if r.AreaOverheadPct <= 0 {
				t.Errorf("area overhead %.2f%%, want > 0", r.AreaOverheadPct)
			}
			// Chunk replay must have actually batched during the clean
			// runs: its campaign pairs with the others only if the
			// strategy engaged.
			if m := r.Campaigns["chunk-replay"].RunMetrics(); m.ChunkSegments == 0 {
				t.Error("chunk-replay campaign recorded no chunk activity")
			}
			continue
		}
		if got != want {
			t.Errorf("strategy table differs between 1 and %d workers:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}

// TestTrialMemoSharesStudies pins the trial memo end to end. One engine
// runs the divergent study and then the strategies study, whose
// lockstep and divergent campaigns draw the divergent study's first
// trials:
//   - both tables are byte-identical to fresh engines' tables;
//   - strategies executes only its chunk-replay and relaxed trials and
//     fault-free runs (zero new lockstep or divergent ones);
//   - the exported metrics count executed work, so a trace of the two
//     studies accounts for exactly the segments the engine reports;
//   - tables and exported metrics are the same at 1 and 4 workers.
func TestTrialMemoSharesStudies(t *testing.T) {
	sc := strategyScale()
	const seed, divTrials, stratTrials = 11, 4, 3
	div, err := divergentStudy(NewEngine(2), sc, seed, divTrials, 2)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := strategyStudy(NewEngine(2), sc, seed, stratTrials, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantDiv, wantStrat := div.Table(), strat.Table()

	defer SetTrace(nil)
	var wantMetrics string
	for _, workers := range []int{1, 4} {
		ring := obs.NewTrace(64)
		SetTrace(ring)
		e := NewEngine(workers)
		d, err := divergentStudy(e, sc, seed, divTrials, workers)
		if err != nil {
			t.Fatal(err)
		}
		runs, trials := e.Runs(), e.TrialRuns()
		s, err := strategyStudy(e, sc, seed, stratTrials, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Table(); got != wantDiv {
			t.Errorf("divergent table on a shared engine at %d workers differs from a fresh engine:\n%s\n--- vs ---\n%s",
				workers, got, wantDiv)
		}
		if got := s.Table(); got != wantStrat {
			t.Errorf("strategies table after the divergent study at %d workers differs from a fresh engine:\n%s\n--- vs ---\n%s",
				workers, got, wantStrat)
		}
		if got := e.TrialRuns() - trials; got != 2*stratTrials {
			t.Errorf("strategies executed %d trials after the divergent study, want %d (chunk-replay and relaxed only)",
				got, 2*stratTrials)
		}
		if got, want := e.Runs()-runs, int64(2*len(s.Slowdown.Benchmarks)); got != want {
			t.Errorf("strategies executed %d fault-free runs after the divergent study, want %d (chunk-replay and relaxed only)",
				got, want)
		}
		stored, dropped := ring.Count(obs.CatSegment)
		if segs := e.Gather().Segments; stored+dropped != segs {
			t.Errorf("trace accounts for %d segments, the engine's metrics for %d", stored+dropped, segs)
		}
		var buf bytes.Buffer
		if err := e.MetricsSnapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if wantMetrics == "" {
			wantMetrics = buf.String()
		} else if buf.String() != wantMetrics {
			t.Errorf("exported metrics differ between 1 and %d workers", workers)
		}
	}
}
