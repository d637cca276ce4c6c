package cpu

import "fmt"

// MicroTrace records the micro-architectural outcomes of one main core
// over one instruction stream: every private-cache hit level (fetch,
// load and store accesses, in consume order) and every branch-prediction
// verdict. The outcomes are a pure function of the functional
// instruction stream and the core's cache/predictor geometry — never of
// times, frequency, or shared-system state — so a trace recorded once
// can replay the core's timing bit-exactly on any later run of the same
// stream on the same geometry, at any DVFS point, without touching cache
// tags or predictor tables. Level-3 accesses are NOT memoised: replay
// re-issues them to the shared LLC/NoC/DRAM model in the original order,
// so shared-state mutations stay bit-identical too.
//
// Events use one byte each: cache accesses store the level (1..3),
// branch resolutions store the verdict (0 mispredict, 1 correct).
// Record and replay walk the identical deterministic consume sequence,
// so no tags are needed.
type MicroTrace struct {
	events []uint8
}

// Len returns the number of recorded events.
func (t *MicroTrace) Len() int { return len(t.events) }

// Bytes returns the trace's memory footprint in bytes.
func (t *MicroTrace) Bytes() int { return len(t.events) }

// GeometryKey identifies the core geometry a MicroTrace is valid for:
// the private-cache configurations (hit levels) and the predictor class
// (branch verdicts). Frequency and pipeline widths are deliberately
// absent — they consume the recorded outcomes but do not shape them.
func GeometryKey(cfg *Config) string {
	return fmt.Sprintf("%+v|%+v|%+v|%v", cfg.L1I, cfg.L1D, cfg.L2, cfg.BigPredictor)
}

// SetMicroRecord attaches (or with nil detaches) a trace the core
// appends every micro-architectural outcome to.
func (c *Core) SetMicroRecord(t *MicroTrace) { c.recTrace = t }

// SetMicroReplay attaches (or with nil detaches) a trace the core
// consumes recorded outcomes from instead of its private caches and
// predictor. The cursor starts at the beginning.
func (c *Core) SetMicroReplay(t *MicroTrace) { c.curTrace = t; c.curPos = 0 }

// microNext pops the next recorded event. Exhaustion means the replayed
// stream diverged from the recorded one, which the stream-eligibility
// rules exclude. It must not crash the run: the core sets its sticky
// MicroExhausted flag and reports an L1 hit / correct prediction (an
// outcome with no side effects), and the owner discards the run's
// timing when it sees the flag at its next consistency point.
func (c *Core) microNext() uint8 {
	t := c.curTrace
	if c.curPos >= len(t.events) {
		c.microDry = true
		return 1
	}
	e := t.events[c.curPos]
	c.curPos++
	return e
}

// MicroExhausted reports whether a replayed micro trace ever ran out on
// this core. Timing computed after that point is not the recorded
// core's, so a caller seeing true must discard it (the core package
// reruns the whole system without the speculation cache).
func (c *Core) MicroExhausted() bool { return c.microDry }

// Prefix returns a copy of the trace's first n events (all of them when
// n exceeds Len) — a truncated recording, for fallback tests.
func (t *MicroTrace) Prefix(n int) *MicroTrace {
	n = min(n, len(t.events))
	return &MicroTrace{events: append([]uint8(nil), t.events[:n]...)}
}

// record appends one event byte.
func (t *MicroTrace) record(e uint8) {
	t.events = append(t.events, e)
}
