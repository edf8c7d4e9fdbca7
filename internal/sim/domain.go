package sim

// Conservative time-windowed execution over one Engine.
//
// A DomainEngine partitions a machine into domains that can advance
// privately — in this codebase, the per-core CPU + L1 subsystems of a
// multi-core machine — while everything shared (bus, DRAM, page
// mapper, sharded ULMT, miss handling) stays on the single global
// event queue. Each domain exposes an *armed* occurrence (its next
// issue-cycle step, kept out of the queue) and can *stretch*: advance
// its private state off the engine clock up to a horizon, buffering
// any cross-domain effects. Everything runs on the calling goroutine.
//
// Step() picks the next thing to execute under a canonical order that
// depends only on simulation state:
//
//  1. if the earliest queue event is due no later than the earliest
//     armed occurrence, fire it (queue wins ties);
//  2. otherwise open a window [ts, H): ts = the earliest armed
//     occurrence, H = the earliest queue event (the conservative
//     bound — nothing outside a domain can affect it before H);
//  3. every domain armed before H stretches to H, in domain-index
//     order;
//  4. at the barrier, each stretched domain commits its buffered
//     effects into the queue in domain-index order.
//
// The lookahead here is stronger than the classic Chandy–Misra
// cross-domain latency floor: a stretch by contract touches only
// domain-private state, so *any* horizon up to the domain's next
// externally scheduled event is safe, and the global next-queue-event
// bound conservatively under-approximates that.
type Domain interface {
	// ArmedAt reports the domain's next private occurrence, if any.
	ArmedAt() (Cycle, bool)
	// Stretch advances private state from the armed occurrence up to
	// (excluding) horizon, buffering cross-domain effects. It must not
	// touch the engine or shared state: its effects on the rest of
	// the machine are published only by Commit.
	Stretch(horizon Cycle)
	// Commit publishes the buffered effects into the event queue. It
	// is called at the window barrier, in domain order.
	Commit()
}

// DomainEngine drives an Engine plus a set of Domains under the
// windowed schedule above.
type DomainEngine struct {
	eng    *Engine
	doms   []Domain
	active []int
}

// NewDomainEngine wraps eng.
func NewDomainEngine(eng *Engine) *DomainEngine { return &DomainEngine{eng: eng} }

// Add registers a domain. Registration order is the canonical domain
// order used for tie-breaking and commit sequencing.
func (de *DomainEngine) Add(d Domain) { de.doms = append(de.doms, d) }

// Step executes the next schedulable unit — one queue event or one
// whole window — and reports whether anything remained to execute.
func (de *DomainEngine) Step() bool {
	armed := false
	var ts Cycle
	for _, d := range de.doms {
		if at, ok := d.ArmedAt(); ok && (!armed || at < ts) {
			armed, ts = true, at
		}
	}
	tq, qok := de.eng.NextAt()
	if !armed {
		if !qok {
			return false
		}
		de.eng.Step()
		return true
	}
	if qok && tq <= ts {
		de.eng.Step()
		return true
	}
	h := Forever
	if qok {
		h = tq
	}
	if cap(de.active) < len(de.doms) {
		de.active = make([]int, 0, len(de.doms))
	}
	de.active = de.active[:0]
	for i, d := range de.doms {
		if at, ok := d.ArmedAt(); ok && at < h {
			de.active = append(de.active, i)
		}
	}
	for _, i := range de.active {
		de.doms[i].Stretch(h)
	}
	for _, i := range de.active {
		de.doms[i].Commit()
	}
	return true
}

// Run steps until no queue events and no armed occurrences remain.
func (de *DomainEngine) Run() {
	for de.Step() {
	}
}
