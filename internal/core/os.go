package core

import (
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
)

// ScheduleRemap arranges for virtual page vaddr's page to move to a
// fresh physical frame at cycle at, modeling an OS page migration
// (§3.4: "the operating system can inform the corresponding ULMT
// when a re-mapping occurs, passing the old and new physical page
// number. Then, the ULMT indexes its table for each line of the old
// page [and] relocates it").
// If the ULMT algorithm exposes its Replicated table, the ULMT is
// notified and relocates the affected rows, paying the update cost
// on its own clock (the paper estimates a few microseconds,
// overlapped with the OS handler; here it occupies the memory
// processor like any other work).
//
// Must be called before Run starts the event loop draining, i.e.
// right after NewSystem.
func (s *System) ScheduleRemap(at sim.Cycle, vaddr mem.Addr) {
	s.eng.At(at, func() { s.doRemap(vaddr) })
}

func (s *System) doRemap(vaddr mem.Addr) {
	oldPFN, newPFN := s.mapper.Remap(vaddr)
	if oldPFN == newPFN || s.mp == nil {
		return
	}
	repl, ok := s.ulmt.alg.(*prefetch.Repl)
	if !ok {
		return
	}
	// The ULMT walks every L2 line of the old page and relocates any
	// row it finds (§3.4). Charge it as one occupancy session.
	ses := s.mp.Begin(s.eng.Now())
	linesPerPage := mem.PageSize4K >> s.cfg.L2.Line.Shift()
	oldBase := mem.LineOf(mem.Addr(oldPFN)<<12, s.cfg.L2.Line)
	newBase := mem.LineOf(mem.Addr(newPFN)<<12, s.cfg.L2.Line)
	moved := 0
	for i := 0; i < linesPerPage; i++ {
		if repl.T.Relocate(oldBase+mem.Line(i), newBase+mem.Line(i), ses) {
			moved++
		}
	}
	ses.MarkResponse()
	elapsed := ses.Elapsed() // read before Finish recycles the session
	s.mp.Finish(ses)
	s.remapsHandled++
	s.remapRowsMoved += uint64(moved)
	// The relocation work occupies the thread: delay its next
	// observation until the session ends.
	if !s.ulmtBusy {
		s.ulmtBusy = true
		s.eng.Schedule(s.eng.Now()+elapsed, s, evUlmtDone, sim.Event{})
	}
}

// RemapsHandled reports OS remap notifications processed and table
// rows moved, for tests and diagnostics.
func (s *System) RemapsHandled() (events, rowsMoved uint64) {
	return s.remapsHandled, s.remapRowsMoved
}
