package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"paraverser/internal/core"
	"paraverser/internal/experiments"
	"paraverser/internal/workload/spec"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's registry:\njson:  %v\nbench: %v", b.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// tinyFuzzPrograms is a two-program decomposition at fuzz scale.
func tinyFuzzPrograms(t *testing.T) []decompProgram {
	t.Helper()
	progs, err := decompPrograms("fuzz", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestTracedRunEmitsEveryLayerMetricWithItsUnit(t *testing.T) {
	tr := NewTracer("decompose")
	rec := &repRecord{}
	layer := decompose(tinyFuzzPrograms(t), tr, rec)
	if rec.Ops != 2 || rec.Failed != 0 {
		t.Fatalf("ops %d failed %d (%v), want 2 clean operations", rec.Ops, rec.Failed, rec.Failures)
	}
	for name, ns := range selfTimes(tr.Spans()) {
		layer["self_ms."+name] = float64(ns) / 1e6
	}
	units := make(map[string]string)
	for _, d := range readBenchmarkJSON(t).PerLayer {
		units[d.Name] = d.Unit
	}
	for name := range layer {
		if _, ok := units[name]; !ok {
			t.Errorf("decomposition measures %s, which BENCHMARK.json does not list", name)
		}
	}
	for _, must := range []string{"emu.insts", "core.check.segments", "fuzz.differential_ms.n", "self_ms.core.check.segment"} {
		if layer[must] <= 0 {
			t.Errorf("%s = %v, want > 0 after decomposing two programs", must, layer[must])
		}
	}
	var out bytes.Buffer
	if err := printResult(&out, result{Correct: true, Attempted: rec.Ops, Metrics: emit(perLayer, layer)}); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(line))
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(units) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(metrics), len(units))
	}
	for name, unit := range units {
		m, ok := metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

func TestInjectedBadOperationCountsAsFailed(t *testing.T) {
	// A program that halts long before its window: the emulated count
	// differs from the window.
	bad := tinyFuzzPrograms(t)[:1]
	bad[0].insts = 1 << 20
	rec := &repRecord{}
	decompose(bad, NewTracer("decompose"), rec)
	if rec.Ops != 1 || rec.Failed != 1 || !strings.Contains(strings.Join(rec.Failures, "\n"), "window") {
		t.Fatalf("ops %d failed %d %v, want the short program to fail its window check", rec.Ops, rec.Failed, rec.Failures)
	}

	// A segment whose log was corrupted must not verify.
	prog, _, err := tinyFuzzPrograms(t)[0].load(nil, &layerAcc{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := newLayerState(prog)
	if err != nil {
		t.Fatal(err)
	}
	var acc layerAcc
	batch, ends, err := st.emulate(batchInsts, nil, &acc)
	if err != nil {
		t.Fatal(err)
	}
	st.cut(batch, ends, nil, &acc)
	seg := st.seg
	seg.End = st.hart.State
	corrupted := false
	for _, e := range seg.Entries {
		if e.Kind != core.EntryNonRepeat {
			e.Ops[0].Addr ^= 8 // the checker compares every logged address
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("test program logged no memory access")
	}
	st.checkAndDispatch(prog, []*core.Segment{seg}, nil, &acc)
	if acc.mismatches == 0 {
		t.Fatal("corrupted segment verified clean")
	}
}

func TestCheckCleanRun(t *testing.T) {
	clean := func() *core.Result {
		return &core.Result{
			Lanes:          []core.LaneResult{{Insts: 100, CheckedInsts: 100}},
			CheckersByLane: [][]core.CheckerResult{{{Insts: 60}, {Insts: 40}}},
		}
	}
	if err := checkCleanRun(clean()); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	detected := clean()
	detected.Lanes[0].Detections = 1
	partial := clean()
	partial.Lanes[0].CheckedInsts = 90
	partial.CheckersByLane[0][0].Insts = 50
	lost := clean()
	lost.CheckersByLane[0][1].Insts = 39
	for name, res := range map[string]*core.Result{"detection": detected, "coverage": partial, "replay count": lost} {
		if checkCleanRun(res) == nil {
			t.Errorf("%s: bad run accepted", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Trace: "a", Start: 0, End: 100},
		// Overlapping children count once; the last runs past its
		// parent and counts only up to the parent's end.
		{ID: 2, Parent: 1, Name: "child", Trace: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Trace: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "late", Trace: "a", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Trace: "a", Start: 25, End: 35},
		// Same ids in another trace are a different tree.
		{ID: 1, Name: "root", Trace: "b", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Trace: "b", Start: 0, End: 10},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":       (100 - 50) + 0,      // a: 40 of [10,50] and 10 of [90,100] covered; b: fully covered
		"child":      20 + (30 - 10) + 10, // a: 20 and 30-10; b: 10
		"late":       30,
		"grandchild": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestDist(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n, tailPct int
		tail, p50  float64
	}{
		{1024, 99, 1014, 512},
		{100, 90, 90, 50},
		{20, 50, 10, 10},
		{5, 0, 5, 3},
	} {
		d := distOf(seq(c.n))
		if d.N != c.n || d.TailPct != c.tailPct || d.Tail != c.tail || d.P50 != c.p50 {
			t.Errorf("n=%d: got %+v, want p50 %v tail p%d %v", c.n, d, c.p50, c.tailPct, c.tail)
		}
	}
}

func TestSpecSubset(t *testing.T) {
	if got, want := specSubset(defaultSeed), experiments.Quick().Benchmarks; !reflect.DeepEqual(got, want) {
		t.Fatalf("default seed picks %v, want Quick()'s %v", got, want)
	}
	var all []string
	for i, group := range specStrata {
		if group[0] != experiments.Quick().Benchmarks[i] {
			t.Errorf("stratum %d leads with %s, want Quick()'s %s", i, group[0], experiments.Quick().Benchmarks[i])
		}
		all = append(all, group...)
	}
	sort.Strings(all)
	names := spec.Names()
	sort.Strings(names)
	if !reflect.DeepEqual(all, names) {
		t.Fatalf("strata cover %v, want every SPEC profile once: %v", all, names)
	}
	differs := false
	for seed := int64(2); seed < 12; seed++ {
		sub := specSubset(seed)
		for i, b := range sub {
			if !contains(specStrata[i], b) {
				t.Fatalf("seed %d picks %s outside stratum %d", seed, b, i)
			}
		}
		differs = differs || !reflect.DeepEqual(sub, specSubset(defaultSeed))
		if !reflect.DeepEqual(sub, specSubset(seed)) {
			t.Fatalf("seed %d: subset not deterministic", seed)
		}
	}
	if !differs {
		t.Fatal("no seed picks a held-out subset")
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
