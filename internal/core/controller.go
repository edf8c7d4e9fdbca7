package core

import (
	"ulmt/internal/bus"
	"ulmt/internal/cache"
	"ulmt/internal/cpu"
	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/queue"
	"ulmt/internal/sim"
)

// arriveController deposits a miss request at the memory controller:
// into queue 1 (to DRAM) and queue 2 (to the ULMT), applying the
// cross-match against waiting prefetches in queue 3 (paper §3.2).
func (s *System) arriveController(pm *l2Miss) {
	now := s.eng.Now()
	if pm.prefetch {
		s.prefReqsToMem++
	} else {
		s.demandMisses++
		if s.sawMiss {
			s.missDist.Add(int64(now - s.lastMissAt))
		}
		s.sawMiss = true
		s.lastMissAt = now
		// The active thread's progress signal.
		s.activeCredit(pm.line)
	}

	// A miss about to enter queues 1 and 2 that matches a waiting
	// prefetch removes the prefetch and enters queue 1 only. On a
	// sharded machine the waiting pushes live in the shard set's
	// rings, keyed by (line, core).
	matchedQ3 := false
	if !s.cfg.DisableCrossMatch {
		if s.shards != nil {
			if s.shards.cancelPush(pm.line, s.coreID) {
				matchedQ3 = true
				s.xMatchDemand++
			}
		} else if _, ok := s.q3.RemoveLine(pm.line); ok {
			matchedQ3 = true
			s.xMatchDemand++
		}
	}

	if !s.q1.Push(queue.Entry{Line: pm.line, Prefetch: pm.prefetch, At: now}) {
		// Queue 1 full: the request waits at the bus interface and
		// retries. (Depth 16 makes this rare.)
		s.eng.After(4, func() { s.arriveController(pm) })
		return
	}

	if (s.mp != nil || s.shards != nil) && !matchedQ3 && (s.cfg.Verbose || !pm.prefetch) {
		switch {
		case s.dropObservationFault():
			// Injected loss: the ULMT never sees this miss. Purely a
			// learning/coverage loss — queue 1 already has the demand.
		case s.q2.Push(queue.Entry{Line: pm.line, Prefetch: pm.prefetch, At: now}):
			if s.shards != nil {
				if s.shards.onStage != nil {
					s.shards.onStage(s.coreID, pm.line)
				}
				s.shards.kick(s.coreID)
			} else {
				s.pumpULMT()
			}
		case s.shards != nil:
			s.shards.dropObservation(pm.line)
		default:
			s.mp.DropObservation()
		}
	}
	s.pumpMemory()
}

// dropObservationFault consumes one observation-site fault decision.
func (s *System) dropObservationFault() bool {
	if s.faults == nil {
		return false
	}
	n := s.obsSeen
	s.obsSeen++
	if s.faults.DropObservation(n) {
		s.inj.ObservationsDropped++
		return true
	}
	return false
}

// pumpMemory is the controller's issue port: one request at a time,
// queue 1 before queue 3 before write-backs, re-armed after each
// issue slot.
func (s *System) pumpMemory() {
	if s.issueBusy {
		return
	}
	now := s.eng.Now()
	if e, ok := s.q1.Pop(); ok {
		pm := s.pendingL2[e.Line]
		if pm == nil || pm.satisfied || pm.completed {
			// Satisfied early by a push; nothing to fetch.
			s.rearm(now + 1)
			return
		}
		s.issueBusy = true
		s.eng.Schedule(now+s.cfg.IssuePortBusy, s, evIssueDemand, sim.Event{P: pm})
		return
	}
	// Write-backs normally yield to prefetches, but a controller
	// cannot defer them forever: past the high-water mark they win
	// arbitration, like a real write buffer forcing drains.
	const wbHighWater = 16
	if len(s.wbOut) > wbHighWater {
		s.issueWBSlot(now)
		return
	}
	// Launch a prefetch only when the outgoing staging buffer has
	// room: the push path is flow-controlled, so congestion backs up
	// into the finite queue 3 instead of an unbounded transfer list.
	if s.fsb.LowBacklog() < 8 {
		if s.shards != nil {
			if l, ok := s.shards.popPushFor(s.coreID); ok {
				s.issueBusy = true
				s.eng.Schedule(now+s.cfg.IssuePortBusy, s, evIssuePush, sim.Event{I0: uint64(l)})
				return
			}
		} else if e, ok := s.q3.Pop(); ok {
			s.issueBusy = true
			s.eng.Schedule(now+s.cfg.IssuePortBusy, s, evIssuePush, sim.Event{I0: uint64(e.Line)})
			return
		}
	}
	if len(s.wbOut) > 0 {
		s.issueWBSlot(now)
		return
	}
}

// issueWBSlot claims the issue port for the oldest pending
// write-back.
func (s *System) issueWBSlot(now sim.Cycle) {
	l := s.wbOut[0]
	s.wbOut = s.wbOut[1:]
	s.issueBusy = true
	s.eng.Schedule(now+s.cfg.IssuePortBusy, s, evIssueWB, sim.Event{I0: uint64(l)})
}

func (s *System) rearm(at sim.Cycle) {
	s.issueBusy = true
	s.eng.Schedule(at, s, evRearm, sim.Event{})
}

// issueDemand performs the DRAM access for a demand (or
// processor-side prefetch) miss and returns the line over the bus.
func (s *System) issueDemand(pm *l2Miss) {
	now := s.eng.Now()
	bankStart, rowHit := s.ram.Access(now, pm.line)
	lat := s.cfg.DRAMRowMissLat
	if rowHit {
		lat = s.cfg.DRAMRowHitLat
	}
	dataReady := bankStart + lat
	s.eng.Schedule(dataReady, s, evDemandData, sim.Event{P: pm})
}

// replyArrives lands a memory reply at the L2.
func (s *System) replyArrives(pm *l2Miss) {
	if pm.satisfied || pm.completed {
		return // a push already completed this miss
	}
	lvl := cpu.LevelMem
	if !pm.prefetch {
		s.outcomes.NonPrefMisses++
	} else {
		// Processor-side prefetch requests that reach memory are
		// lumped into NonPrefMisses in Fig 9 (§5.2).
		s.outcomes.NonPrefMisses++
	}
	s.completeL2(pm, lvl)
	s.pumpMemory()
}

// issuePush performs the DRAM access for a ULMT prefetch and pushes
// the line toward the L2. From the North Bridge the request pays the
// extra hop to the DRAM array (Table 3: 25 cycles).
func (s *System) issuePush(line mem.Line) {
	bankStart, rowHit := s.ram.Access(s.eng.Now()+s.cfg.MemProc.PrefetchToDRAM, line)
	lat := s.cfg.DRAMRowMissLat
	if rowHit {
		lat = s.cfg.DRAMRowHitLat
	}
	dataReady := bankStart + lat
	s.eng.Schedule(dataReady, s, evPushData, sim.Event{I0: uint64(line)})
}

// pushAtController is the moment a prefetched line's data reaches the
// memory controller on its way out. If a matching demand request is
// still waiting in queue 1, the push becomes its reply and the demand
// is never sent to the DRAM (paper Fig 3-(b) discussion).
func (s *System) pushAtController(line mem.Line) {
	if _, ok := s.q1.RemoveLine(line); ok {
		if pm := s.pendingL2[line]; pm != nil && !pm.completed {
			s.outcomes.DelayedHits++
			s.fsb.TransferLineTo(bus.Demand, s, evPushReply, sim.Event{P: pm})
			return
		}
	}
	s.fsb.TransferLineTo(bus.Prefetch, s, evPushArrive, sim.Event{I0: uint64(line)})
}

// pushArrivesAtL2 applies the paper's §2.1 acceptance rules.
func (s *System) pushArrivesAtL2(line mem.Line) {
	s.pushesToL2++
	if s.cfg.DropPushes {
		s.outcomes.Redundant++
		return
	}
	// Steal-the-MSHR case first: complete the pending demand miss.
	if pm := s.pendingL2[line]; pm != nil && !pm.completed && !pm.prefetch {
		s.outcomes.DelayedHits++
		s.l2.StealMSHR(pm.mshrID)
		pm.satisfied = true
		s.completeL2(pm, cpu.LevelMem)
		return
	}
	outcome, _ := s.l2.AcceptPush(line)
	switch outcome {
	case cache.PushAccepted:
		s.drainL2Victims()
		// Installed as an unreferenced prefetched line; its MSHR
		// slot is released immediately (the fill is instantaneous at
		// this boundary of the model).
	case cache.PushStolenMSHR:
		// Handled above via pendingL2; reaching here means an MSHR
		// existed without a pending record (a processor-side
		// prefetch in flight): treat as a delayed hit for it.
		s.outcomes.DelayedHits++
	case cache.PushDropRedundant:
		s.outcomes.Redundant++
	case cache.PushDropWriteback:
		s.outcomes.Redundant++
		s.outcomes.DroppedWritebackHit++
	case cache.PushDropNoMSHR:
		s.outcomes.Redundant++
		s.outcomes.DroppedNoMSHR++
	case cache.PushDropPendingSet:
		s.outcomes.Redundant++
		s.outcomes.DroppedPendingSet++
	}
	s.pumpMemory()
}

// issueWriteback retires one dirty L2 victim: the line crosses the
// bus to the controller and is written into its DRAM bank. No reply.
func (s *System) issueWriteback(line mem.Line) {
	s.fsb.TransferLineTo(bus.Writeback, s, evWBDone, sim.Event{I0: uint64(line)})
}

// memThread is the paper's Fig 2 memory thread: the correlation
// algorithm, the order of its two steps, and the emit buffer of the
// session in flight. A System's private ULMT owns one, and so does
// the shard set, whose one shared thread serves every core.
type memThread struct {
	alg        prefetch.Algorithm
	learnFirst bool

	// emits buffers the current session's generated lines; collect is
	// the once-allocated callback handed to the algorithm, which drops
	// the observed line obs itself. Reuse is safe because a session's
	// lines leave the buffer before the next session of the thread
	// begins (see pumpULMT and shardSet.process).
	emits   []mem.Line
	obs     mem.Line
	collect func(mem.Line)

	// faults, when non-nil, supplies the session-stall stream, which
	// the thread's sessions consume in order; inj is where the stalls
	// are charged.
	faults   *fault.Plan
	sessions uint64
	inj      *fault.Injected
}

// newMemThread builds a thread running alg under cfg's step order and
// fault plan, charging its stalls to inj.
func newMemThread(alg prefetch.Algorithm, cfg Config, inj *fault.Injected) *memThread {
	t := &memThread{alg: alg, learnFirst: cfg.LearnFirst, inj: inj}
	if cfg.Faults.Enabled() {
		t.faults = cfg.Faults
	}
	t.collect = func(l mem.Line) {
		if l != t.obs {
			t.emits = append(t.emits, l)
		}
	}
	return t
}

// session runs one Fig 2 iteration for an observed miss line on the
// memory processor mp, starting at begin: the prefetching step, whose
// generated lines land in t.emits, and the learning step. It returns
// when the generated lines are due at the Filter (respAt) and when
// the thread can take its next observation (occAt).
func (t *memThread) session(mp *memproc.MemProc, line mem.Line, begin sim.Cycle) (respAt, occAt sim.Cycle) {
	ses := mp.Begin(begin)
	t.obs = line
	t.emits = t.emits[:0]
	if t.learnFirst {
		// Ablation: naive ordering. Response spans both steps.
		t.alg.Learn(line, ses)
		t.alg.Prefetch(line, ses, t.collect)
		ses.MarkResponse()
	} else {
		t.alg.Prefetch(line, ses, t.collect)
		ses.MarkResponse()
		t.alg.Learn(line, ses)
	}
	respAt = begin + ses.Response()
	occAt = begin + ses.Elapsed()
	mp.Finish(ses)
	if t.faults != nil {
		// A preemption window after this session: the thread is
		// descheduled, so both the prefetch deposit and the next
		// observation slide by the stall.
		n := t.sessions
		t.sessions++
		if st := t.faults.SessionStall(n); st > 0 {
			t.inj.Stalls++
			t.inj.StallCycles += st
			respAt += st
			occAt += st
		}
	}
	return respAt, occAt
}

// pumpULMT runs the private memory thread's infinite loop (paper Fig
// 2): pop an observed miss from queue 2, run a session, deposit the
// generated addresses when its response time has passed, repeat when
// its occupancy ends. The deposit event always fires before the next
// session starts (it never schedules later than evUlmtDone and wins
// the same-cycle tie), so the thread's one emit buffer suffices.
func (s *System) pumpULMT() {
	if s.ulmtBusy || s.mp == nil || s.ulmt.alg == nil {
		return
	}
	e, ok := s.q2.Pop()
	if !ok {
		return
	}
	s.ulmtBusy = true
	respAt, occAt := s.ulmt.session(s.mp, e.Line, s.eng.Now())
	if len(s.ulmt.emits) > 0 {
		s.eng.Schedule(respAt, s, evUlmtDeposit, sim.Event{})
	}
	s.eng.Schedule(occAt, s, evUlmtDone, sim.Event{})
}

// depositPrefetches runs each generated address through the Filter
// module, the fault layer, and the queue-3 admission path. On a
// sharded machine the lines are a shard session's, delivered back to
// the originating core's controller.
func (s *System) depositPrefetches(lines []mem.Line) {
	for _, l := range lines {
		if !s.filter.Admit(l) {
			continue
		}
		if s.shards != nil && s.cfg.DropPushes {
			// On the sharded machine the pull-design ablation drops
			// the push before it queues (the single-core machine
			// drops at the L2 boundary instead; the per-core queue-3
			// and bus legs it would have exercised live in the shard
			// set here, so this is the equivalent cut point).
			continue
		}
		if s.faults != nil {
			n := s.pushSeen
			s.pushSeen++
			if s.faults.DropPush(n) {
				s.inj.PushesDropped++
				continue
			}
			if d := s.faults.PushDelay(n); d > 0 {
				// The Filter already recorded the address; on arrival
				// the push re-runs only the cross-match and queue-3
				// admission, so a stale delayed push can still be
				// cancelled or dropped there.
				s.inj.PushesDelayed++
				s.eng.After(d, func() {
					s.enqueuePrefetch(l)
					s.pumpMemory()
				})
				continue
			}
		}
		s.enqueuePrefetch(l)
	}
	s.pumpMemory()
}

// enqueuePrefetch applies the queue-3 cross-match and admission for
// one post-Filter prefetch address. A sharded machine admits into
// the owning shard's push ring instead of the core's queue 3.
func (s *System) enqueuePrefetch(l mem.Line) {
	if !s.cfg.DisableCrossMatch {
		// A prefetch matching a pending miss is redundant: a
		// higher-priority request is already in queue 1. It is
		// removed from queue 2 as well to save ULMT occupancy.
		if s.q1.ContainsLine(l) || s.q2.ContainsLine(l) {
			if s.shards == nil {
				// Not on a sharded machine, whose queue 2 is the
				// delivery staging buffer: removing from it would make
				// the observation stream the shards see depend on
				// deposit timing, which depends on the shard count.
				s.q2.RemoveLine(l)
			}
			s.xMatchPush++
			return
		}
	}
	switch {
	case s.shards != nil:
		s.shards.pushQ3(l, s)
	case s.q3.ContainsLine(l):
		// Already queued by an earlier miss.
	case !s.q3.Push(queue.Entry{Line: l, Prefetch: true, At: s.eng.Now()}):
		s.q3Drops++
	}
}
