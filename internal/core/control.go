package core

import (
	"sync/atomic"

	"ulmt/internal/workload"
)

// RunOutcome says how a controlled run ended.
type RunOutcome int

const (
	// RunFinished: the op stream completed; Results are valid.
	RunFinished RunOutcome = iota
	// RunAborted: the control asked to stop and discard.
	RunAborted
)

// RunControl lets another goroutine stop a RunControlled simulation:
// the -run-timeout watchdog aborts a wedged run, and an interrupted
// run matrix aborts every in-flight one. The zero value means "run to
// completion".
type RunControl struct {
	aborted atomic.Bool
}

// Abort asks the run to stop and discard its state.
func (c *RunControl) Abort() { c.aborted.Store(true) }

// RunControlled executes the op stream like Run, but polls ctl
// between batches of events and stops with RunAborted once Abort has
// been called. A nil ctl is exactly Run.
func (s *System) RunControlled(app string, ops []workload.Op, ctl *RunControl) (Results, RunOutcome) {
	s.startRun(ops)
	if ctl == nil {
		s.eng.Run()
		return s.results(app), RunFinished
	}
	// Control is polled per batch: an atomic load per event is
	// measurable over ~10^9 events.
	const pollBatch = 4096
	for !ctl.aborted.Load() {
		for i := 0; i < pollBatch; i++ {
			if !s.eng.Step() {
				return s.results(app), RunFinished
			}
		}
	}
	return Results{}, RunAborted
}
