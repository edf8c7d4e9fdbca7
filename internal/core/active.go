package core

import (
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// ActiveConfig turns the memory thread into an *active* prefetcher
// (paper Fig 1-(c)): it executes an abridged address-generating
// program ahead of the main processor instead of (or, conceptually,
// beside) reacting to observed misses.
type ActiveConfig struct {
	// Slice is the abridged program. BuildSlice derives one from an
	// op stream.
	Slice *prefetch.Slice
	// MaxAhead bounds how many generated lines may be outstanding
	// beyond the main processor's observed progress; each observed
	// demand miss releases one credit. Keeps the helper from running
	// so far ahead that its pushes are evicted before use.
	MaxAhead int
}

// BuildSlice derives the abridged program from an op stream: the
// memory-op skeleton at L2-line granularity with consecutive
// duplicate lines collapsed, dependence flags preserved. This is the
// idealized slice a programmer would write by stripping computation
// from the application loop. Addresses are translated with the same
// deterministic first-touch policy the run will use, since the ULMT
// operates on physical addresses.
func BuildSlice(ops []workload.Op, linearPages bool, seed uint64, line mem.LineSize) *prefetch.Slice {
	mapper := mem.NewPageMapper(linearPages, seed)
	var steps []prefetch.SliceStep
	var prev mem.Line
	have := false
	for i := range ops {
		op := &ops[i]
		if op.Kind == workload.Compute {
			continue
		}
		l := mem.LineOf(mapper.Translate(op.Addr), line)
		if have && l == prev {
			if op.Dep && len(steps) > 0 {
				steps[len(steps)-1].Dep = true
			}
			continue
		}
		steps = append(steps, prefetch.SliceStep{Line: l, Dep: op.Dep})
		prev, have = l, true
	}
	return prefetch.NewSlice(steps)
}

// activeState tracks the active thread during a run.
type activeState struct {
	cfg     ActiveConfig
	running bool
	done    bool

	// emittedPos/consumedPos index into the slice: how far the
	// helper has generated and how far the main processor has
	// demonstrably progressed. Their difference is the run-ahead.
	emittedPos  int
	consumedPos int
	emitted     map[mem.Line]int // line -> highest emitted position

	generated uint64
	stalls    uint64
	resyncs   uint64
}

func (a *activeState) ahead() int { return a.emittedPos - a.consumedPos }

// activeCredit is called with every observed demand-miss line: the
// helper uses it as a progress signal. A miss on a line it recently
// emitted advances the consumed position; a miss on an upcoming,
// not-yet-emitted line means the main processor overtook the helper,
// which resynchronizes by fast-forwarding the abridged program.
func (s *System) activeCredit(line mem.Line) {
	a := s.active
	if a == nil {
		return
	}
	if pos, ok := a.emitted[line]; ok {
		if pos > a.consumedPos {
			a.consumedPos = pos
		}
		delete(a.emitted, line)
	} else {
		const scanWindow = 64
		for d := 0; d < scanWindow; d++ {
			st, ok := a.cfg.Slice.Peek(d)
			if !ok {
				break
			}
			if st.Line == line {
				a.cfg.Slice.Skip(d + 1)
				a.emittedPos += d + 1
				a.consumedPos = a.emittedPos
				a.resyncs++
				break
			}
		}
	}
	s.pumpActive()
}

// pumpActive advances the abridged program while credits allow,
// charging its execution to the memory processor and depositing the
// generated addresses on the prefetch path.
func (s *System) pumpActive() {
	a := s.active
	if a == nil || a.running || a.done || s.mp == nil {
		return
	}
	if a.ahead() >= a.cfg.MaxAhead {
		a.stalls++
		return // throttled; the next observed miss re-arms us
	}
	a.running = true
	now := s.eng.Now()
	ses := s.mp.Begin(now)
	s.activeEmits = s.activeEmits[:0]
	for a.ahead()+len(s.activeEmits) < a.cfg.MaxAhead {
		l, ok := a.cfg.Slice.Next(ses)
		if !ok {
			a.done = true
			break
		}
		s.activeEmits = append(s.activeEmits, l)
	}
	ses.MarkResponse()
	elapsed := ses.Elapsed() // read before Finish recycles the session
	s.mp.Finish(ses)
	a.generated += uint64(len(s.activeEmits))
	for i, l := range s.activeEmits {
		a.emitted[l] = a.emittedPos + i + 1
	}
	a.emittedPos += len(s.activeEmits)
	if len(a.emitted) > 4*a.cfg.MaxAhead {
		// Bound the lookup table: forget stale entries (lines the
		// processor sailed past as hits).
		for l, pos := range a.emitted {
			if pos <= a.consumedPos {
				delete(a.emitted, l)
			}
		}
	}
	// The deposit schedules ahead of the session-end event, so the
	// shared emit buffer is drained before the next session reuses it
	// (same argument as pumpULMT).
	end := now + elapsed
	if len(s.activeEmits) > 0 {
		s.eng.Schedule(end, s, evActiveDeposit, sim.Event{})
	}
	s.eng.Schedule(end, s, evActiveDone, sim.Event{})
}
