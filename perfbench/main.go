// Command perfbench is the repository's benchmark: it runs the
// figures, faults and fuzz workloads through the public
// internal/experiments entry points, each repetition in a fresh
// process, checks every output, and prints the end-to-end metrics
// (--trace 0) or a per-layer decomposition (--trace 1) as one JSON line.
// See README.md for the workloads, metrics and trace format.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench --workload figures --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// gomaxprocs is the parallelism every repetition runs at.
	gomaxprocs = 2
	// setupRuns is how many set-up processes one run times; setup_s is
	// their median.
	setupRuns = 5
	// minReps is the fewest cold repetitions a run measures, however
	// short --seconds is, so every timing is a median of at least three.
	minReps = 3
	// outDir holds the written traces, inside the checkout.
	outDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    string
}

func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fset.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fset.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (1 reproduces experiments.Quick())")
	fset.IntVar(&o.seconds, "seconds", 10, "how long the untraced repetitions may take (at least three run)")
	fset.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer decomposition")
	fset.StringVar(&o.child, "child", "", "internal: run one repetition in this process (setup, rep, traced, decompose)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadEntries[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %s (got %q)\n", strings.Join(workloadNames, ", "), o.workload)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1\n")
		return 2
	}
	if o.child != "" {
		return runChild(o, stdout)
	}
	var err error
	if o.trace == 0 {
		err = runUntraced(o, stdout)
	} else {
		err = runTraced(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runChild is one repetition in a fresh process. It prints its record
// as the last line of standard output.
func runChild(o options, stdout io.Writer) int {
	var rec *repRecord
	var err error
	switch o.child {
	case "setup":
		_, err = setupPrograms(o.workload, o.seed)
		rec = &repRecord{}
	case "rep":
		rec, err = runWorkload(o.workload, o.seed, nil)
	case "traced":
		rec, err = runWorkload(o.workload, o.seed, NewTracer("traced"))
	case "decompose":
		rec, err = runDecompose(o.workload, o.seed, fuzzSeeds)
	default:
		err = fmt.Errorf("unknown child mode %q", o.child)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.child, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.child, err)
		return 1
	}
	return 0
}

// runDecompose is phase 2 of a traced run: the layer decomposition on
// the workload's own programs.
func runDecompose(workload string, seed int64, fuzzCount int) (*repRecord, error) {
	progs, err := decompPrograms(workload, seed, fuzzCount)
	if err != nil {
		return nil, err
	}
	tr := NewTracer("decompose")
	rec := &repRecord{}
	rec.Layer = decompose(progs, tr, rec)
	rec.Spans = tr.Spans()
	return rec, nil
}

// measured is one child process as the parent saw it.
type measured struct {
	rec   *repRecord
	start time.Time
	wall  float64 // seconds from start to exit
	cpu   float64 // user+sys seconds
	rssMB float64 // peak resident set
}

// spawn runs one child repetition to completion.
func spawn(o options, mode string) (*measured, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--child", mode, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", mode, err)
	}
	m := &measured{start: start, wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		m.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		m.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	m.rec = &repRecord{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), m.rec); err != nil {
		return nil, fmt.Errorf("%s repetition: bad record: %w", mode, err)
	}
	return m, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runUntraced(o options, stdout io.Writer) error {
	printHost(stdout, o)
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		m, err := spawn(o, "setup")
		if err != nil {
			return err
		}
		setups = append(setups, m.wall)
	}
	// Start another repetition only while it should finish within
	// --seconds, judging by the last one, so a run ends on time.
	var reps []*measured
	budget := time.Duration(o.seconds) * time.Second
	begin := time.Now()
	for {
		m, err := spawn(o, "rep")
		if err != nil {
			return err
		}
		reps = append(reps, m)
		next := time.Since(begin) + time.Duration(m.wall*float64(time.Second))
		if len(reps) >= minReps && next > budget {
			break
		}
	}
	res := result{Correct: checkReps(stdout, o, reps)}
	var walls, cpus, rss []float64
	for i, m := range reps {
		walls, cpus, rss = append(walls, m.wall), append(cpus, m.cpu), append(rss, m.rssMB)
		fmt.Fprintf(stdout, "rep %d: wall %.3fs cpu %.3fs peak rss %.1f MB\n", i+1, m.wall, m.cpu, m.rssMB)
		res.Attempted += m.rec.Ops
		res.Failed += m.rec.Failed
	}
	fmt.Fprintf(stdout, "setup: %s s\n", joinFloats(setups))
	res.Correct = res.Correct && res.Failed == 0
	res.Metrics = emit(endToEnd, map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
		"setup_s":     median(setups),
	})
	return printResult(stdout, res)
}

func runTraced(o options, stdout io.Writer) error {
	printHost(stdout, o)
	plain, err := spawn(o, "rep")
	if err != nil {
		return err
	}
	traced, err := spawn(o, "traced")
	if err != nil {
		return err
	}
	dec, err := spawn(o, "decompose")
	if err != nil {
		return err
	}
	res := result{Correct: checkReps(stdout, o, []*measured{plain, traced})}
	for _, m := range []*measured{plain, traced, dec} {
		res.Attempted += m.rec.Ops
		res.Failed += m.rec.Failed
	}
	res.Correct = res.Correct && res.Failed == 0

	layer := make(map[string]float64)
	for k, v := range traced.rec.Layer {
		layer[k] = v
	}
	for k, v := range dec.rec.Layer {
		layer[k] = v
	}
	layer["trace.overhead_ratio"] = (traced.wall - plain.wall) / plain.wall
	spans := append(append([]Span(nil), traced.rec.Spans...), dec.rec.Spans...)
	self := selfTimes(spans)
	for name, ns := range self {
		layer["self_ms."+name] = float64(ns) / 1e6
	}
	printSpanTable(stdout, spans, self)
	fmt.Fprintf(stdout, "untraced wall %.3fs, traced wall %.3fs, decomposition wall %.3fs\n", plain.wall, traced.wall, dec.wall)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", o.workload, o.seed))
	origin := plain.start
	offsets := map[string]int64{
		"traced":    int64(traced.start.Sub(origin)),
		"decompose": int64(dec.start.Sub(origin)),
	}
	if err := writeChromeTrace(path, spans, offsets); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %s (%d spans; open in https://ui.perfetto.dev)\n", path, len(spans))
	res.Metrics = emit(perLayer, layer)
	return printResult(stdout, res)
}

// checkReps prints the simulated-results digest and the failures, and
// reports whether every repetition rendered the same results and did
// the same work.
func checkReps(stdout io.Writer, o options, reps []*measured) bool {
	ok := true
	first := reps[0].rec
	fmt.Fprintf(stdout, "== simulated results: workload %s, seed %d ==\n%s", o.workload, o.seed, first.Digest)
	for i, m := range reps {
		sum := sha256.Sum256([]byte(m.rec.Digest))
		same := m.rec.Digest == first.Digest
		fmt.Fprintf(stdout, "digest rep %d: sha256 %x identical=%v\n", i+1, sum[:8], same)
		if !same {
			ok = false
		}
		if !maps.Equal(first.Counters, m.rec.Counters) {
			fmt.Fprintf(stdout, "NOT COMPARABLE: rep %d did different work: %v vs %v\n", i+1, m.rec.Counters, first.Counters)
			ok = false
		}
		for _, f := range m.rec.Failures {
			fmt.Fprintf(stdout, "FAILED rep %d: %s\n", i+1, f)
		}
	}
	fmt.Fprintf(stdout, "same-work counters: %s\n", formatCounters(first.Counters))
	return ok
}

func formatCounters(c map[string]int64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(parts, " ")
}

// printSpanTable prints, per span name, the sample count, median, tail
// percentile and summed self time.
func printSpanTable(w io.Writer, spans []Span, self map[string]int64) {
	durs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.Dur())/1e6)
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %7s %11s %16s %12s\n", "span", "n", "p50 ms", "tail ms", "self ms")
	for _, n := range names {
		d := distOf(durs[n])
		tail := fmt.Sprintf("max %.3f", d.Tail)
		if d.TailPct > 0 {
			tail = fmt.Sprintf("p%d %.3f", d.TailPct, d.Tail)
		}
		fmt.Fprintf(w, "%-26s %7d %11.3f %16s %12.3f\n", n, d.N, d.P50, tail, float64(self[n])/1e6)
	}
}

func printResult(w io.Writer, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printHost prints the host record the figures were taken on.
func printHost(w io.Writer, o options) {
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), gomaxprocs, runtime.Version(), runtime.GOOS, runtime.GOARCH, sourceID())
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, o.trace)
}

// sourceID identifies the code under test: the git commit when the
// checkout is a repository, otherwise a hash of every Go source and
// module file below the working directory.
func sourceID() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
