package cpu

import (
	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// Cycle-skipping fast path.
//
// The processor plus its L1-hit completions form a closed subsystem:
// an issue cycle that only retires compute ops and L1-hitting
// loads/stores interacts with the rest of the machine through nothing
// but L1 cache state (which ProbeL1 updates identically) and the
// passage of time. So as long as every locally simulated occurrence
// lies strictly before the engine's next pending event (the skip
// horizon, Engine.NextAt), those cycles can retire in a tight loop on
// a local clock without ever entering the event queue.
//
// fastRun is a miniature event loop over exactly the two event types
// the closed subsystem generates — issue-cycle steps and L1-hit
// completions — replayed with the same ordering the queue would
// impose. The ordering argument: a completion due at cycle C was
// scheduled rt >= 3 cycles earlier, while the step due at C was
// scheduled at most one cycle earlier (issue tick), exactly rt
// cycles earlier with the loads of its cycle pushed first (compute
// delay of rt), or at C itself (unblock); in every case the
// completion's queue position precedes the step's, so the loop fires
// all completions due at a cycle before that cycle's step.
//
// The loop hands back to the engine at the first occurrence it cannot
// retire locally:
//
//   - an L1 miss (exitOnMiss: the clock catches up, buffered
//     completions rematerialize, and the rest of the issue cycle runs
//     against the real Memory path);
//   - the skip horizon (an external event — a miss completion, a
//     multiprogramming timeslice, an OS remap, a fault-plan event —
//     is due no later than the next local occurrence);
//   - a hazard with no locally buffered completion to clear it (the
//     unblocking completion is an engine event);
//   - retirement of the whole stream (fastMaybeFinish).
//
// Rematerialized events carry fresh sequence numbers, which is
// exactly the order the queue would have seen: every pending external
// event was scheduled before this fastRun entered (the queue is
// frozen while it runs), and in the event-driven execution the local
// events would have been scheduled during it.

// fastDone is one locally retired completion awaiting its due cycle:
// the inline image of the evDone event the memory system would have
// scheduled for an L1 hit. id carries storeIDFlag for stores.
type fastDone struct {
	due sim.Cycle
	id  uint64
}

// pushRing appends a pending local completion, compacting consumed
// head space instead of growing when the backing array is full. Live
// entries are bounded by rt*IssueWidth, so steady state never
// reallocates.
func (p *Processor) pushRing(e fastDone) {
	if len(p.ring) == cap(p.ring) && p.ringHead > 0 {
		n := copy(p.ring, p.ring[p.ringHead:])
		p.ring = p.ring[:n]
		p.ringHead = 0
	}
	p.ring = append(p.ring, e)
}

func (p *Processor) popRing() fastDone {
	e := p.ring[p.ringHead]
	p.ringHead++
	if p.ringHead == len(p.ring) {
		p.ring = p.ring[:0]
		p.ringHead = 0
	}
	return e
}

// flushRing rematerializes every buffered completion as a typed
// engine event, in buffer (= issue = queue) order.
func (p *Processor) flushRing() {
	for p.ringHead < len(p.ring) {
		e := p.ring[p.ringHead]
		p.ringHead++
		p.eng.Schedule(e.due, p, kindDone, sim.Event{I0: e.id})
	}
	p.ring = p.ring[:0]
	p.ringHead = 0
}

// fastRun retires steps and L1-hit completions inline until the next
// local occurrence would reach the skip horizon. It runs in place of
// a fired issue-cycle step, so the first step executes
// unconditionally — its queue position is already consumed — and the
// local clock starts at the engine's current cycle. The completion
// ring is empty on entry: every exit path flushes it.
func (p *Processor) fastRun() {
	now := p.eng.Now()
	extAt, extOK := p.eng.NextAt()
	hasStep, stepAt := true, now
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
			// Blocked on an engine event, or finished: nothing local
			// remains, and the ring is already empty. The clock
			// catches up to the last locally fired occurrence — in
			// the event-driven execution each of them advanced Now,
			// and the final one (a trailing no-op step after the
			// stream finished, say) may be the last event of the
			// whole run.
			p.eng.AdvanceTo(now)
			return
		}
		if at != now {
			if extOK && at >= extAt {
				// The horizon comes first (a tie also exits: the
				// external event was queued before anything local
				// would have been). Rematerialize and hand back.
				p.eng.AdvanceTo(now)
				p.flushRing()
				if hasStep {
					p.eng.Schedule(stepAt, p, kindStep, sim.Event{})
				}
				return
			}
			now = at
		}
		if comp {
			e := p.popRing()
			if hs, sa := p.fastComplete(e.id, now); hs {
				hasStep, stepAt = true, sa
			}
		} else {
			hasStep = false
			var exited bool
			hasStep, stepAt, exited = p.fastStep(now)
			if exited {
				return
			}
		}
	}
}

// fastStep is one inline issue cycle, mirroring step/issueFrom with a
// local clock and probed L1 hits. It reports whether (and when) a
// next step is due, or that it exited to the engine at an L1 miss.
func (p *Processor) fastStep(now sim.Cycle) (hasStep bool, stepAt sim.Cycle, exited bool) {
	if p.Trace != nil {
		p.Trace("step", now)
	}
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
				p.fastBlock(blockDep, p.lastLoadID, now)
				return false, 0, false
			}
			if p.pendingLoads >= p.cfg.MaxPendingLoads {
				p.fastBlock(blockLoadPorts, 0, now)
				return false, 0, false
			}
			if p.windowFull() {
				p.fastBlock(blockWindow, 0, now)
				return false, 0, false
			}
			if !p.fastIssueLoad(op.Addr, now) {
				p.exitOnMiss(now, issued)
				return false, 0, true
			}
			p.pc++
			p.Retired++
			issued++
		case workload.Store:
			if p.pendingStores >= p.cfg.MaxPendingStores {
				p.fastBlock(blockStorePorts, 0, now)
				return false, 0, false
			}
			if !p.fastIssueStore(op.Addr, now) {
				p.exitOnMiss(now, issued)
				return false, 0, true
			}
			p.pc++
			p.Retired++
			issued++
		}
	}
	if p.pc >= len(p.ops) {
		p.fastMaybeFinish(now)
		return false, 0, false
	}
	p.IssueCycles++
	return true, now + 1, false
}

// fastIssueLoad retires an L1-hitting load inline, or reports an L1
// miss having touched nothing. On a windowed core fastMem is the
// windowMem wrapper, so the probe is the read-only window probe —
// same call shape, no per-probe mode branch.
func (p *Processor) fastIssueLoad(a mem.Addr, now sim.Cycle) bool {
	rt, hit := p.fastMem.ProbeL1(a, false)
	if !hit {
		return false
	}
	p.nextLoadID++
	id := p.nextLoadID
	p.lastLoadID = id
	p.lastLoadDone = false
	p.pendingLoads++
	p.pushInflight(inflightLoad{id: id, opIdx: p.pc})
	p.pushRing(fastDone{due: now + rt, id: id})
	return true
}

// fastIssueStore retires an L1-hitting store inline, or reports an L1
// miss having touched nothing.
func (p *Processor) fastIssueStore(a mem.Addr, now sim.Cycle) bool {
	rt, hit := p.fastMem.ProbeL1(a, true)
	if !hit {
		return false
	}
	p.pendingStores++
	p.pushRing(fastDone{due: now + rt, id: storeIDFlag})
	return true
}

// exitOnMiss leaves the fast loop at the first L1 miss of an issue
// cycle: the engine clock catches up to the local one, buffered
// completions rematerialize (before the miss enters the memory
// system, preserving same-cycle queue order), and the remainder of
// the issue cycle — starting with the missing op itself — runs
// through the event-driven path.
func (p *Processor) exitOnMiss(now sim.Cycle, issued int) {
	if p.stretching {
		// Off-clock: latch the handoff point; CommitStretch turns it
		// into a kindMissResume event at the window barrier. Buffered
		// ring completions stay put — their dues all lie past the miss
		// cycle (completions due at it fired before this step), so the
		// commit order matches the inline handoff exactly.
		p.strMissed, p.strMissAt, p.strIssued = true, now, issued
		return
	}
	p.eng.AdvanceTo(now)
	p.flushRing()
	p.issueFrom(issued)
}

// fastComplete mirrors Complete/loadDone/storeDone for a locally
// buffered L1-hit completion, on the local clock. It reports whether
// an unblock armed a same-cycle step.
func (p *Processor) fastComplete(id uint64, now sim.Cycle) (hasStep bool, stepAt sim.Cycle) {
	if id&storeIDFlag != 0 {
		p.pendingStores--
		if p.blocked == blockStorePorts {
			hasStep, stepAt = p.fastUnblock(now), now
		}
		p.fastMaybeFinish(now)
		return
	}
	if p.Trace != nil {
		p.Trace("loadDone", now)
	}
	p.pendingLoads--
	if id == p.lastLoadID {
		p.lastLoadDone = true
	}
	for i := p.inflightHead; i < len(p.inflight); i++ {
		if p.inflight[i].id == id {
			p.inflight[i].done = true
			break
		}
	}
	switch p.blocked {
	case blockDep:
		if id == p.blockOnID {
			hasStep, stepAt = p.fastUnblock(now), now
		}
	case blockLoadPorts, blockWindow:
		hasStep, stepAt = p.fastUnblock(now), now
	case notBlocked, blockStorePorts:
		// Either running, finished draining, or waiting on stores.
	}
	p.fastMaybeFinish(now)
	return
}

// fastBlock mirrors block on the local clock.
func (p *Processor) fastBlock(r blockReason, onID uint64, now sim.Cycle) {
	if p.Trace != nil {
		p.Trace("block", now)
	}
	p.blocked = r
	p.blockOnID = onID
	p.blockStart = now
}

// fastUnblock mirrors unblock on the local clock. Ring completions
// are always L1 hits, so the stall charges to uptoL2. It reports
// whether a same-cycle step should arm (it always should: Pause
// cannot land mid-fastRun, but the check keeps parity with unblock).
func (p *Processor) fastUnblock(now sim.Cycle) bool {
	if p.Trace != nil {
		p.Trace("unblock", now)
	}
	d := now - p.blockStart
	p.BlockedByReason[p.blocked] += d
	p.BlockEvents[p.blocked]++
	p.uptoL2 += d
	p.blocked = notBlocked
	return !p.paused
}

// fastMaybeFinish mirrors maybeFinish: if the stream has fully
// retired, the engine clock catches up first so the finish timestamp
// (and anything onDone schedules) lands on the local cycle. The ring
// is necessarily empty here — every entry holds a pending load or
// store.
func (p *Processor) fastMaybeFinish(now sim.Cycle) {
	if p.finished || p.pc < len(p.ops) || p.pendingLoads > 0 || p.pendingStores > 0 {
		return
	}
	if p.stretching {
		// Off-clock: latch retirement; CommitStretch schedules the
		// kindFinish event so onDone runs on the engine clock.
		p.strFinished, p.strFinishAt = true, now
		return
	}
	p.eng.AdvanceTo(now)
	p.maybeFinish()
}
