package cpu

import (
	"ulmt/internal/checkpoint"
	"ulmt/internal/sim"
)

// Checkpoint support. The processor is only snapshotted at quiescent
// points — no loads or stores outstanding, not blocked, not paused,
// fast-path completion ring drained — where its sole pending event is
// the step self-event. Everything else (program counter, load IDs,
// the issue-window ring, stall accounting) is plain data.

// Idle reports whether the processor is at such a point: the memory
// system owes it nothing and its next action is a future step event.
func (p *Processor) Idle() bool {
	return p.pendingLoads == 0 && p.pendingStores == 0 &&
		p.blocked == notBlocked && !p.paused && !p.finished &&
		p.ringHead >= len(p.ring)
}

// Drained reports a fully retired processor with nothing outstanding:
// the other snapshottable state. A multi-core checkpoint needs it —
// cores finish at different times, so some processors are done while
// others are mid-stream.
func (p *Processor) Drained() bool {
	return p.finished && p.pendingLoads == 0 && p.pendingStores == 0 &&
		p.blocked == notBlocked && !p.paused &&
		p.ringHead >= len(p.ring)
}

// NextStepAt returns the due cycle of the pending step self-event;
// meaningful only when Idle().
func (p *Processor) NextStepAt() sim.Cycle { return p.stepAt }

// Snapshot serializes the processor state; it panics when called away
// from a quiescent point, which would need in-flight loads and the
// local completion ring to cross the checkpoint.
func (p *Processor) Snapshot(w *checkpoint.Writer) {
	if !p.Idle() && !p.Drained() {
		panic("cpu: snapshot of a non-idle processor")
	}
	w.Tag("cpu")
	w.Bool(p.finished)
	w.Int(p.pc)
	w.U64(p.nextLoadID)
	w.U64(p.lastLoadID)
	w.Bool(p.lastLoadDone)
	// The issue-window ring holds only already-completed loads at a
	// quiescent point, but they still occupy window slots until the
	// issue loop pops them; serialize the live window verbatim.
	w.Int(len(p.inflight) - p.inflightHead)
	for _, f := range p.inflight[p.inflightHead:] {
		w.U64(f.id)
		w.Int(f.opIdx)
		w.Bool(f.done)
	}
	w.I64(int64(p.startAt))
	w.I64(int64(p.uptoL2))
	w.I64(int64(p.beyondL2))
	w.U64(p.Retired)
	w.U64(p.IssueCycles)
	w.U64(p.ComputeCycles)
	for _, c := range p.BlockedByReason {
		w.I64(int64(c))
	}
	for _, n := range p.BlockEvents {
		w.U64(n)
	}
}

// Restore rebuilds the state captured by Snapshot into a freshly
// constructed processor (New re-applies config normalization, so
// restore goes New → Restore → ResumeAt, never Start).
func (p *Processor) Restore(r *checkpoint.Reader) {
	r.Tag("cpu")
	p.finished = r.Bool()
	p.pc = r.Int()
	if p.pc < 0 || p.pc > len(p.ops) {
		r.Failf("cpu pc %d outside a %d-op stream", p.pc, len(p.ops))
		return
	}
	p.nextLoadID = r.U64()
	p.lastLoadID = r.U64()
	p.lastLoadDone = r.Bool()
	n := r.Count(17) // id, opIdx, done
	if r.Err() != nil {
		return
	}
	p.inflight = make([]inflightLoad, n)
	p.inflightHead = 0
	for i := range p.inflight {
		f := &p.inflight[i]
		f.id = r.U64()
		f.opIdx = r.Int()
		f.done = r.Bool()
		if f.opIdx < 0 || f.opIdx > p.pc {
			r.Failf("cpu in-flight load at op %d, pc %d", f.opIdx, p.pc)
			return
		}
	}
	p.startAt = sim.Cycle(r.I64())
	p.uptoL2 = sim.Cycle(r.I64())
	p.beyondL2 = sim.Cycle(r.I64())
	p.Retired = r.U64()
	p.IssueCycles = r.U64()
	p.ComputeCycles = r.U64()
	for i := range p.BlockedByReason {
		p.BlockedByReason[i] = sim.Cycle(r.I64())
	}
	for i := range p.BlockEvents {
		p.BlockEvents[i] = r.U64()
	}
}

// ResumeAt re-creates the processor's single pending event, the step
// self-event the checkpointed run had scheduled at stepAt — or, in
// windowed mode, re-arms the step register the DomainEngine dispatches
// from. It replaces Start on the restore path. A restored Drained
// processor has no pending event; callers skip ResumeAt for it.
func (p *Processor) ResumeAt(stepAt sim.Cycle) {
	p.stepAt = stepAt
	if p.windowed {
		p.armed = true
		return
	}
	p.eng.Schedule(stepAt, p, kindStep, sim.Event{})
}
