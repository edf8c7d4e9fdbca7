package cpu

import (
	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// Windowed execution: the per-core half of the multi-core machine's
// conservative time windows (sim.DomainEngine, core.MultiSystem).
//
// In windowed mode the issue-cycle step never enters the shared event
// queue: scheduleStep arms a register (armed/stepAt) that the
// DomainEngine reads through Armed. When the engine opens a window
// [ts, H) — H bounded by the earliest pending queue event — every
// armed core whose step falls inside it runs a *stretch*: a tight
// loop over the core's issue steps and L1-hit completions, entirely
// off the engine clock.
//
// A stretch may run ahead of the engine clock because it is confined
// to the core's private closed subsystem: compute retirement, L1-hit
// probes (the window probe — page-mapper Lookup is read-only, the L1
// itself is per-core), and the local completion ring. The first thing
// it cannot retire privately — an L1 miss, stream retirement, a
// hazard whose unblocker is an engine event, or the window horizon —
// ends it. Cross-domain effects are latched (strMissed/strFinished,
// the ring) and only published by CommitStretch, which the
// DomainEngine calls at the window barrier in core-id order. That
// barrier order, plus "queue events fire before armed steps at a tie,
// lowest core id first among armed steps", is the canonical schedule:
// a function of simulation state only.
//
// Inside a stretch the loop replays its two occurrence types — issue
// steps and L1-hit completions — in the order the event queue would
// impose. A completion due at cycle C was scheduled rt >= 3 cycles
// earlier, while the step due at C was scheduled at most one cycle
// earlier (issue tick), exactly rt cycles earlier with the loads of
// its cycle pushed first (compute delay of rt), or at C itself
// (unblock); in every case the completion's queue position precedes
// the step's, so the loop fires all completions due at a cycle before
// that cycle's step.

// stretchDone is one locally retired completion awaiting its due
// cycle: the inline image of the evDone event the memory system would
// have scheduled for an L1 hit. id carries storeIDFlag for stores.
type stretchDone struct {
	due sim.Cycle
	id  uint64
}

// SetWindowed switches the processor to windowed step scheduling and
// installs the read-only L1 probe its stretches use. The probe must
// apply exactly the private cache effects the asynchronous hit path
// would (LRU touch, dirty bit, hit counters) while leaving all shared
// state — in particular the page mapper — untouched, and must report
// a miss, having touched nothing, for any access it cannot retire
// read-only. Must be called before Start.
func (p *Processor) SetWindowed(probe func(a mem.Addr, write bool) (rt sim.Cycle, hit bool)) {
	p.windowed, p.probe = true, probe
}

// Armed reports the armed step register: the due cycle of the next
// issue-cycle step, and whether one is armed at all (a blocked,
// draining, or finished core has none).
func (p *Processor) Armed() (sim.Cycle, bool) { return p.stepAt, p.armed }

// RunStretch consumes the armed register and advances the core's
// private subsystem from its armed step up to (but excluding)
// horizon. It must not touch the engine or any shared state: the
// stretch runs ahead of the engine clock, and only CommitStretch may
// publish its effects. The caller only invokes it when Armed()
// reports a step strictly before horizon.
func (p *Processor) RunStretch(horizon sim.Cycle) {
	p.armed = false
	hasStep, stepAt := true, p.stepAt
	for {
		// Pick the next local occurrence; completions due no later
		// than the step fire first (see the ordering argument above).
		var at sim.Cycle
		comp := false
		if p.ringHead < len(p.ring) {
			at = p.ring[p.ringHead].due
			if hasStep && stepAt < at {
				at = stepAt
			} else {
				comp = true
			}
		} else if hasStep {
			at = stepAt
		} else {
			// Blocked on an engine event, or finished: every ring entry
			// holds a pending load or store, so the ring is empty and
			// only the finish latch, if set, remains for CommitStretch.
			return
		}
		if at >= horizon {
			// Hand the remainder to the next window: the step re-arms,
			// and ring entries — all due at or past the horizon, since
			// dues are monotonic and the head is ≥ at — rematerialize
			// as queue events at the barrier.
			if hasStep {
				p.armed, p.stepAt = true, stepAt
			}
			return
		}
		if comp {
			e := p.popRing()
			if p.stretchComplete(e.id, at) {
				hasStep, stepAt = true, at
			}
			continue
		}
		var missed bool
		hasStep, stepAt, missed = p.stretchStep(at)
		if missed {
			return
		}
	}
}

// CommitStretch publishes a finished stretch's cross-domain effects
// into the event queue: buffered L1-hit completions in issue order,
// then the miss-resume handoff, then the finish notification. The
// DomainEngine calls it at the window barrier in core-id order — the
// sequential part of every window — so queue insertion order, and
// with it all downstream tie-breaking, is canonical.
func (p *Processor) CommitStretch() {
	for p.ringHead < len(p.ring) {
		e := p.ring[p.ringHead]
		p.ringHead++
		p.eng.Schedule(e.due, p, kindDone, sim.Event{I0: e.id})
	}
	p.ring = p.ring[:0]
	p.ringHead = 0
	if p.strMissed {
		p.strMissed = false
		p.eng.Schedule(p.strMissAt, p, kindMissResume, sim.Event{I0: uint64(p.strIssued)})
	}
	if p.strFinished {
		p.strFinished = false
		p.eng.Schedule(p.strFinishAt, p, kindFinish, sim.Event{})
	}
}

// pushRing appends a pending local completion, compacting consumed
// head space instead of growing when the backing array is full. Live
// entries are bounded by rt*IssueWidth, so steady state never
// reallocates.
func (p *Processor) pushRing(e stretchDone) {
	if len(p.ring) == cap(p.ring) && p.ringHead > 0 {
		n := copy(p.ring, p.ring[p.ringHead:])
		p.ring = p.ring[:n]
		p.ringHead = 0
	}
	p.ring = append(p.ring, e)
}

func (p *Processor) popRing() stretchDone {
	e := p.ring[p.ringHead]
	p.ringHead++
	if p.ringHead == len(p.ring) {
		p.ring = p.ring[:0]
		p.ringHead = 0
	}
	return e
}

// stretchStep is one inline issue cycle, mirroring step/issueFrom with
// a local clock and probed L1 hits. It reports whether (and when) a
// next step is due, or that it latched an L1 miss and the stretch
// must end.
func (p *Processor) stretchStep(now sim.Cycle) (hasStep bool, stepAt sim.Cycle, missed bool) {
	if p.finished || p.paused || p.blocked != notBlocked {
		return false, 0, false
	}
	issued := 0
	for issued < p.cfg.IssueWidth && p.pc < len(p.ops) {
		op := &p.ops[p.pc]
		switch op.Kind {
		case workload.Compute:
			p.pc++
			p.Retired++
			w := sim.Cycle(op.Work)
			if w < 1 {
				w = 1
			}
			p.ComputeCycles += uint64(w)
			return true, now + w, false
		case workload.Load:
			if op.Dep && !p.lastLoadDone {
				p.stretchBlock(blockDep, p.lastLoadID, now)
				return false, 0, false
			}
			if p.pendingLoads >= p.cfg.MaxPendingLoads {
				p.stretchBlock(blockLoadPorts, 0, now)
				return false, 0, false
			}
			if p.windowFull() {
				p.stretchBlock(blockWindow, 0, now)
				return false, 0, false
			}
			if !p.stretchLoad(op.Addr, now) {
				p.latchMiss(now, issued)
				return false, 0, true
			}
			p.pc++
			p.Retired++
			issued++
		case workload.Store:
			if p.pendingStores >= p.cfg.MaxPendingStores {
				p.stretchBlock(blockStorePorts, 0, now)
				return false, 0, false
			}
			if !p.stretchStore(op.Addr, now) {
				p.latchMiss(now, issued)
				return false, 0, true
			}
			p.pc++
			p.Retired++
			issued++
		}
	}
	if p.pc >= len(p.ops) {
		p.stretchMaybeFinish(now)
		return false, 0, false
	}
	p.IssueCycles++
	return true, now + 1, false
}

// stretchLoad retires an L1-hitting load inline, or reports an L1
// miss having touched nothing.
func (p *Processor) stretchLoad(a mem.Addr, now sim.Cycle) bool {
	rt, hit := p.probe(a, false)
	if !hit {
		return false
	}
	p.nextLoadID++
	id := p.nextLoadID
	p.lastLoadID = id
	p.lastLoadDone = false
	p.pendingLoads++
	p.pushInflight(inflightLoad{id: id, opIdx: p.pc})
	p.pushRing(stretchDone{due: now + rt, id: id})
	return true
}

// stretchStore retires an L1-hitting store inline, or reports an L1
// miss having touched nothing.
func (p *Processor) stretchStore(a mem.Addr, now sim.Cycle) bool {
	rt, hit := p.probe(a, true)
	if !hit {
		return false
	}
	p.pendingStores++
	p.pushRing(stretchDone{due: now + rt, id: storeIDFlag})
	return true
}

// latchMiss records the handoff point of the first L1 miss of an
// issue cycle; CommitStretch turns it into a kindMissResume event at
// the window barrier, which runs the remainder of the issue cycle —
// starting with the missing op itself — through the event-driven
// path. Buffered ring completions stay put: their dues all lie past
// the miss cycle (completions due at it fired before this step), so
// the commit order matches an inline handoff exactly.
func (p *Processor) latchMiss(now sim.Cycle, issued int) {
	p.strMissed, p.strMissAt, p.strIssued = true, now, issued
}

// stretchComplete mirrors Complete/loadDone/storeDone for a locally
// buffered L1-hit completion, on the local clock. It reports whether
// an unblock armed a same-cycle step.
func (p *Processor) stretchComplete(id uint64, now sim.Cycle) (step bool) {
	if id&storeIDFlag != 0 {
		p.pendingStores--
		if p.blocked == blockStorePorts {
			step = p.stretchUnblock(now)
		}
		p.stretchMaybeFinish(now)
		return step
	}
	p.retireLoad(id)
	switch p.blocked {
	case blockDep:
		if id == p.blockOnID {
			step = p.stretchUnblock(now)
		}
	case blockLoadPorts, blockWindow:
		step = p.stretchUnblock(now)
	case notBlocked, blockStorePorts:
		// Either running, finished draining, or waiting on stores.
	}
	p.stretchMaybeFinish(now)
	return step
}

// stretchBlock mirrors block on the local clock.
func (p *Processor) stretchBlock(r blockReason, onID uint64, now sim.Cycle) {
	p.blocked = r
	p.blockOnID = onID
	p.blockStart = now
}

// stretchUnblock mirrors unblock on the local clock. Ring completions
// are always L1 hits, so the stall charges to uptoL2. It reports
// whether a same-cycle step should arm (it always should: Pause
// cannot land mid-stretch, but the check keeps parity with unblock).
func (p *Processor) stretchUnblock(now sim.Cycle) bool {
	d := now - p.blockStart
	p.BlockedByReason[p.blocked] += d
	p.BlockEvents[p.blocked]++
	p.uptoL2 += d
	p.blocked = notBlocked
	return !p.paused
}

// stretchMaybeFinish mirrors maybeFinish off the engine clock: if the
// stream has fully retired, it latches the retirement cycle, and
// CommitStretch schedules the kindFinish event so onDone runs on the
// engine clock. The ring is necessarily empty here — every entry
// holds a pending load or store.
func (p *Processor) stretchMaybeFinish(now sim.Cycle) {
	if p.finished || p.pc < len(p.ops) || p.pendingLoads > 0 || p.pendingStores > 0 {
		return
	}
	p.strFinished, p.strFinishAt = true, now
}
