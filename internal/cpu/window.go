package cpu

import (
	"ulmt/internal/mem"
	"ulmt/internal/sim"
)

// Windowed execution: the per-core half of the multi-core machine's
// conservative time windows (sim.DomainEngine, core.MultiSystem).
//
// In windowed mode the issue-cycle step never enters the shared event
// queue: scheduleStep arms a register (armed/stepAt) that the
// DomainEngine reads through Armed. When the engine opens a window
// [ts, H) — H bounded by the earliest pending queue event — every
// armed core whose step falls inside it runs a *stretch*: the same
// tight loop as fastRun, but entirely off the engine clock, so
// stretches of different cores may run on different goroutines
// concurrently.
//
// A stretch is safe to run concurrently because it is confined to the
// core's private closed subsystem: compute retirement, L1-hit probes
// (the window probe — page-mapper Lookup is read-only, the L1 itself is
// per-core), and the local completion ring. The first thing it cannot
// retire privately — an L1 miss, stream retirement, a hazard whose
// unblocker is an engine event, or the window horizon — ends it.
// Cross-domain effects are latched (strMissed/strFinished, the ring)
// and only published by CommitStretch, which the DomainEngine calls
// sequentially at the window barrier in core-id order. That barrier
// order, plus "queue events fire before armed steps at a tie, lowest
// core id first among armed steps", is the canonical schedule: it is
// a function of simulation state only, never of worker count, which
// is why -intra-j N is byte-identical to -intra-j 1.

// SetWindowed switches the processor to windowed step scheduling.
// Must be called before Start.
func (p *Processor) SetWindowed() { p.windowed = true }

// windowMem swaps a windowed core's FastMemory probe for the
// read-only window probe while keeping the Memory path (Load/Store,
// used by the event-driven miss handoff) intact. Wrapping the
// interface once at setup keeps fastIssueLoad/Store's hot-path call
// a plain interface dispatch — identical to the non-windowed machine
// — instead of a per-probe mode branch.
type windowMem struct {
	Memory
	probe func(a mem.Addr, write bool) (rt sim.Cycle, hit bool)
}

func (w *windowMem) ProbeL1(a mem.Addr, write bool) (sim.Cycle, bool) { return w.probe(a, write) }

// SetWindowProbe installs the read-only L1 probe stretches use. It
// must apply exactly the private cache effects ProbeL1 would (LRU
// touch, dirty bit, hit counters) while leaving all shared state —
// in particular the page mapper — untouched, and must report a miss
// for any translation it cannot answer read-only. A windowed
// stretchable core probes the L1 only inside stretches (its steps
// never run on the engine clock), so the probe replaces ProbeL1
// unconditionally.
func (p *Processor) SetWindowProbe(probe func(a mem.Addr, write bool) (rt sim.Cycle, hit bool)) {
	if p.fastMem != nil {
		p.fastMem = &windowMem{Memory: p.fastMem, probe: probe}
	}
}

// Armed reports the armed step register: the due cycle of the next
// issue-cycle step, and whether one is armed at all (a blocked,
// draining, or finished core has none).
func (p *Processor) Armed() (sim.Cycle, bool) { return p.stepAt, p.armed }

// CanStretch reports whether the armed step can run as a concurrent
// stretch. A core without the fast path (-fastpath=off, the
// event-driven oracle) cannot: its issue cycles go through the real
// Memory path, so the DomainEngine fires them sequentially on the
// engine clock via FireArmedStep.
func (p *Processor) CanStretch() bool { return p.fastMem != nil }

// FireArmedStep consumes the armed register and runs one event-driven
// issue cycle on the engine clock (which the caller has advanced to
// the armed cycle). Non-stretchable cores only.
func (p *Processor) FireArmedStep() {
	p.armed = false
	p.step()
}

// RunStretch consumes the armed register and advances the core's
// private subsystem from its armed step up to (but excluding)
// horizon. It must not touch the engine or any shared state: other
// cores' stretches may be running concurrently. The caller only
// invokes it when Armed() reports a step strictly before horizon.
func (p *Processor) RunStretch(horizon sim.Cycle) {
	p.armed = false
	p.stretching = true
	hasStep, stepAt := true, p.stepAt
	var now sim.Cycle
	for {
		// Same occurrence pick as fastRun: completions due no later
		// than the step fire first.
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
			// Blocked on an engine event, or finished: the ring is
			// necessarily empty (see fastRun), so only the finish
			// latch, if set, remains for CommitStretch.
			break
		}
		if at >= horizon {
			// Hand the remainder to the next window: the step re-arms,
			// and ring entries — all due at or past the horizon, since
			// dues are monotonic and the head is ≥ at — rematerialize
			// as queue events at the barrier.
			if hasStep {
				p.armed, p.stepAt = true, stepAt
			}
			break
		}
		now = at
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
				// L1 miss: latched in strMissed/strMissAt/strIssued by
				// exitOnMiss's stretching branch.
				break
			}
		}
	}
	p.stretching = false
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
