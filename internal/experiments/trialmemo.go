package experiments

import (
	"paraverser/internal/core"
	"paraverser/internal/fault"
)

// trialKey identifies one fault-injection trial for the engine's trial
// memo: the run-cache fingerprint of the campaign's config template, the
// workload's identity and window, and the trial's own draw. The trial's
// Index and pool indices are not part of it, so equal draws from
// different campaigns — the divergent study and the strategies study
// share seed, pool, mix and templates — meet on one entry.
type trialKey struct {
	cfg     string // fingerprint of the config template
	ws      string // workloadsKey of the one workload
	seed    int64
	fault   fault.Fault
	checker int
}

// trialCall is one executed trial; identical trials share it
// (singleflight), so a campaign that asks for a trial another campaign
// is still running waits for that execution.
type trialCall struct {
	done chan struct{}
	res  fault.TrialResult
	err  error
	// w pins the workload program for the memo's lifetime, like
	// runCall.ws.
	w core.Workload
}

// Trial implements fault.TrialMemo: each identical trial executes once
// per engine, with its own private injector, and later requests share
// the result. Metrics count executed work, as for the run cache: Gather
// merges each executed trial's shard exactly once, and a memo hit
// counts as a hit, not as a new shard, so a -trace of the executed
// trials accounts for every segment the export reports. Templates
// carrying an interceptor of their own execute privately.
func (e *Engine) Trial(template *core.Config, w *core.Workload, t fault.Trial, exec func() (fault.TrialResult, error)) (fault.TrialResult, error) {
	c := &trialCall{done: make(chan struct{}), w: *w}
	e.mu.Lock()
	if cacheable(template) {
		key := trialKey{
			cfg:     fingerprint(template),
			ws:      workloadsKey([]core.Workload{*w}),
			seed:    t.Seed,
			fault:   t.Fault,
			checker: t.CheckerID,
		}
		if hit, ok := e.trials[key]; ok {
			e.mu.Unlock()
			e.hits.Add(1)
			select {
			case <-hit.done:
			default:
				e.shares.Add(1)
			}
			<-hit.done
			return hit.res, hit.err
		}
		e.trials[key] = c
	}
	e.trialCalls = append(e.trialCalls, c)
	e.mu.Unlock()

	e.trialRuns.Add(1)
	c.res, c.err = exec()
	close(c.done)
	return c.res, c.err
}
