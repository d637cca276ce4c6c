package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds on
// the recording process's monotonic clock, measured from its tracer's
// origin; Parent is 0 for a root span. Trace names the repetition the
// span belongs to, so spans of different child processes never mix.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out once, when the
// benchmark ends. A nil *Tracer records nothing, so untraced runs call
// the same code with no timing calls at all.
type Tracer struct {
	trace  string
	origin time.Time
	spans  []Span
	stack  []int
}

// NewTracer starts a tracer for one repetition.
func NewTracer(trace string) *Tracer {
	return &Tracer{trace: trace, origin: time.Now()}
}

// Begin opens a span nested in the innermost open span and returns its
// id, which End closes. The tracer is single-goroutine: spans are opened
// and closed around sequential calls.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Trace: t.trace,
		Start: int64(time.Since(t.origin)),
	})
	t.stack = append(t.stack, id)
	return id
}

// End closes span id and returns its duration in nanoseconds.
func (t *Tracer) End(id int) int64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	return s.Dur()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval that
// its child spans cover. Overlapping children count once, and a child
// running past its parent's end counts only up to that end.
func selfTimes(spans []Span) map[string]int64 {
	type key struct {
		trace string
		id    int
	}
	children := make(map[key][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[key{s.Trace, s.ID}])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// Dist summarises one timing distribution: the median, the highest
// whole percentile that still has at least ten samples beyond it, and
// the sample count. TailPct is 0 when there are too few samples for any
// percentile at or above the median to have ten beyond it; Tail is then
// the maximum.
type Dist struct {
	N       int
	P50     float64
	TailPct int
	Tail    float64
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func distOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := Dist{N: len(s), P50: rank(s, 50), Tail: s[len(s)-1]}
	for p := 99; p >= 50; p-- {
		idx := rankIndex(len(s), p)
		if len(s)-1-idx >= minBeyond {
			d.TailPct, d.Tail = p, s[idx]
			break
		}
	}
	return d
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(n, p int) int {
	idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
	return max(0, min(idx, n-1))
}

func rank(sorted []float64, p int) float64 { return sorted[rankIndex(len(sorted), p)] }

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of each repetition as one process
// track. offsets gives each trace's start relative to the benchmark's
// own start, in nanoseconds, so the tracks line up on one time axis.
func writeChromeTrace(path string, spans []Span, offsets map[string]int64) error {
	pids := make(map[string]int)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		pid, ok := pids[s.Trace]
		if !ok {
			pid = len(pids) + 1
			pids[s.Trace] = pid
		}
		off := offsets[s.Trace]
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: pid, TID: 1,
			TS:   float64(off+s.Start) / 1e3,
			Dur:  float64(s.Dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	for trace, pid := range pids {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": trace},
		})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].PID != events[j].PID {
			return events[i].PID < events[j].PID
		}
		return events[i].TS < events[j].TS
	})
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
