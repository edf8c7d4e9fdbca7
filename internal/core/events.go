package core

import (
	"ulmt/internal/bus"
	"ulmt/internal/cpu"
	"ulmt/internal/mem"
	"ulmt/internal/sim"
)

// The System is one sim.Actor: every recurring event of the miss
// pipeline is a typed (kind, payload) pair delivered to Fire, so the
// per-miss event chain — L2 lookup, bus request, controller arrival,
// issue slot, DRAM data, reply transfer, fill — schedules without a
// single allocation. Payloads ride the two integer slots (line
// addresses, request ids, levels) or the pointer slot (*l2Miss,
// cpu.Completer). Closures survive only on genuinely rare paths:
// MSHR-full retries, fault-delayed pushes, OS remaps, run startup and
// the multiprogramming scheduler.
const (
	// evDone completes a processor request: I0 = request id,
	// I1 = service level, P = the cpu.Completer.
	evDone sim.Kind = iota
	// evCompleteL1 fills an L1 line after an L2 hit: I0 = L1 line,
	// I1 = service level.
	evCompleteL1
	// evSendReq launches a miss request onto the bus after the L2
	// lookup delay: I0 = 1 for prefetch class, P = *l2Miss.
	evSendReq
	// evReqDone is the request packet's last beat: P = *l2Miss.
	evReqDone
	// evArrive lands the request at the memory controller after the
	// controller overhead: P = *l2Miss.
	evArrive
	// evIssueDemand is an issue-port slot expiring into a demand
	// DRAM access: P = *l2Miss.
	evIssueDemand
	// evDemandData is DRAM data ready for a demand miss: P = *l2Miss.
	evDemandData
	// evReplyDone is the reply line's last beat at the L2: P = *l2Miss.
	evReplyDone
	// evIssuePush is an issue-port slot expiring into a prefetch
	// push: I0 = line.
	evIssuePush
	// evIssueWB is an issue-port slot expiring into a write-back:
	// I0 = line.
	evIssueWB
	// evPushData is prefetched data reaching the controller outbound
	// path: I0 = line.
	evPushData
	// evPushReply is a push serving a queued demand, crossing as its
	// reply: P = *l2Miss.
	evPushReply
	// evPushArrive is a pushed line's last beat at the L2: I0 = line.
	evPushArrive
	// evWBDone is a write-back line's last beat at the controller:
	// I0 = line.
	evWBDone
	// evRearm frees the issue port with nothing to launch.
	evRearm
	// evUlmtDeposit deposits the current ULMT session's emitted
	// prefetches (buffered on the private memThread).
	evUlmtDeposit
	// evUlmtDone ends the current ULMT session's occupancy.
	evUlmtDone
	// evActiveDeposit deposits the active thread's emitted prefetches
	// (buffered on System.activeEmits).
	evActiveDeposit
	// evActiveDone ends the active thread's session.
	evActiveDone
)

// Fire implements sim.Actor, dispatching every typed event of the
// miss pipeline.
func (s *System) Fire(kind sim.Kind, ev sim.Event) {
	switch kind {
	case evDone:
		ev.P.(cpu.Completer).Complete(ev.I0, cpu.Level(ev.I1))
	case evCompleteL1:
		s.completeL1(mem.Line(ev.I0), cpu.Level(ev.I1))
	case evSendReq:
		kind := bus.Demand
		if ev.I0 != 0 {
			kind = bus.Prefetch
		}
		s.fsb.TransferRequestTo(kind, s, evReqDone, sim.Event{P: ev.P})
	case evReqDone:
		s.eng.Schedule(s.eng.Now()+s.cfg.CtrlOverhead, s, evArrive, sim.Event{P: ev.P})
	case evArrive:
		s.arriveController(ev.P.(*l2Miss))
	case evIssueDemand:
		s.issueBusy = false
		s.issueDemand(ev.P.(*l2Miss))
		s.pumpMemory()
	case evDemandData:
		pm := ev.P.(*l2Miss)
		kind := bus.Demand
		if pm.prefetch {
			kind = bus.Prefetch
		}
		s.fsb.TransferLineTo(kind, s, evReplyDone, sim.Event{P: pm})
	case evReplyDone:
		s.replyArrives(ev.P.(*l2Miss))
	case evIssuePush:
		s.issueBusy = false
		s.issuePush(mem.Line(ev.I0))
		s.pumpMemory()
	case evIssueWB:
		s.issueBusy = false
		s.issueWriteback(mem.Line(ev.I0))
		s.pumpMemory()
	case evPushData:
		s.pushAtController(mem.Line(ev.I0))
	case evPushReply:
		pm := ev.P.(*l2Miss)
		if !pm.completed {
			s.completeL2(pm, cpu.LevelMem)
		}
		s.pumpMemory()
	case evPushArrive:
		s.pushArrivesAtL2(mem.Line(ev.I0))
	case evWBDone:
		s.ram.Access(s.eng.Now(), mem.Line(ev.I0))
		s.pumpMemory()
	case evRearm:
		s.issueBusy = false
		s.pumpMemory()
	case evUlmtDeposit:
		s.depositPrefetches(s.ulmt.emits)
	case evUlmtDone:
		s.ulmtBusy = false
		s.pumpULMT()
	case evActiveDeposit:
		s.depositPrefetches(s.activeEmits)
	case evActiveDone:
		s.active.running = false
		s.pumpActive()
	}
}
