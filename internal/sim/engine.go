// Package sim provides the discrete-event simulation core: a cycle
// clock and an event queue with deterministic ordering.
//
// The whole machine is clocked in 1.6 GHz main-processor cycles, the
// unit the paper reports every time in ("All cycles are 1.6 GHz
// cycles", Table 3). Components that run at other frequencies (the
// 400 MHz bus, the 800 MHz memory processor) convert to main cycles at
// their boundary.
//
// Events scheduled for the same cycle fire in the order they were
// scheduled, which keeps every simulation run bit-for-bit
// reproducible regardless of map iteration order or GC timing.
//
// # Scheduling without allocating
//
// The hot path of every run is this queue: one simulated L2 miss
// costs tens of events (pipeline stalls, bus slots, controller
// queues, DRAM banks, ULMT sessions). Two APIs schedule them:
//
//   - Schedule/ScheduleAfter deliver a typed (Kind, Event) pair to a
//     long-lived Actor. Nothing escapes: the event payload rides in
//     two integers and a pointer-shaped field, so steady-state
//     scheduling performs zero heap allocations.
//   - At/After wrap a closure. Each call allocates the closure, so
//     these remain only as a shim for genuinely one-off events
//     (startup, rare retries, test scaffolding).
//
// Events are stored in a time-bucket wheel (see wheel.go) sized for
// the short bounded latencies and the shallow queue depth of a
// memory-system simulation: one recycled node pool threaded into
// per-cycle FIFO lists, with a spill heap for far-future events such
// as multiprogramming timeslices.
package sim

// Cycle is a point in simulated time, in 1.6 GHz main-processor
// cycles. It is signed so that subtraction is safe in intermediate
// expressions; the engine never runs at negative time.
type Cycle int64

// Forever is a sentinel meaning "no deadline". It is the largest
// cycle the engine will ever schedule at: At clamps beyond it and
// After saturates instead of overflowing, so `After(Forever - now)`
// style arithmetic is safe at any current time.
const Forever Cycle = 1<<62 - 1

// Kind discriminates the typed events of one Actor. Each component
// defines its own compact enum; kinds are meaningless across actors.
type Kind uint32

// Event is the payload delivered to an Actor. Two integer slots and
// one pointer-shaped slot cover every event in the simulator: line
// addresses and ids travel in I0/I1, record pointers in P. Storing a
// pointer (or an interface holding a pointer) in P does not allocate;
// only boxing a non-pointer value would, and no call site does.
type Event struct {
	I0, I1 uint64
	P      any
}

// Actor receives typed events. Implementations are long-lived
// simulation components (the core system, the bus, a processor), so
// scheduling against them allocates nothing.
type Actor interface {
	Fire(kind Kind, ev Event)
}

// Engine is the event-driven simulation kernel. The zero value is not
// usable; construct with NewEngine.
//
// Invariants, relied on throughout the simulator:
//
//   - Now never decreases. Step sets it to the fired event's cycle;
//     RunUntil additionally advances it to the deadline when the
//     queue runs dry early.
//   - Events at the same cycle fire in scheduling order (FIFO).
//   - Fired counts exactly the events executed; RunUntil moving the
//     clock past quiet cycles does not increment it, so Fired+Pending
//     is conserved by pure time passage. A multi-core machine's
//     stretches (DomainEngine) retire issue steps and L1 hits without
//     entering the queue, so Fired measures event *churn*, not
//     simulated work.
type Engine struct {
	now   Cycle
	seq   uint64 // orders same-cycle overflow events
	fired uint64
	wheel wheel
}

// NewEngine returns an engine at cycle 0 with an empty event queue.
func NewEngine() *Engine {
	e := &Engine{}
	e.wheel.pool = make([]node, 1) // the sentinel node
	return e
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// push enqueues an event for cycle c. Inside the window it fills a
// pool node in place; beyond it, the event and its sequence number go
// to the overflow heap.
func (e *Engine) push(c Cycle, kind Kind, i0, i1 uint64, p any, a Actor) {
	if c < e.now {
		panic("sim: event scheduled in the past")
	}
	if c > Forever {
		c = Forever
	}
	if c-e.wheel.base < wheelSize {
		n := e.wheel.put(c)
		n.i0, n.i1, n.p, n.actor, n.kind = i0, i1, p, a, kind
		return
	}
	e.seq++
	e.wheel.over.push(farEvent{at: c, seq: e.seq, n: node{i0: i0, i1: i1, p: p, actor: a, kind: kind}})
}

// saturate returns now+d, clamped to Forever on overflow. Negative
// delays are a programming error and panic, because they would
// silently corrupt causality in the pipeline models.
func (e *Engine) saturate(d Cycle) Cycle {
	if d < 0 {
		panic("sim: negative delay")
	}
	if d > Forever-e.now {
		return Forever
	}
	return e.now + d
}

// Schedule delivers (kind, ev) to actor a at cycle c. This is the
// zero-allocation path; a must be a long-lived component.
// Scheduling in the past panics.
func (e *Engine) Schedule(c Cycle, a Actor, kind Kind, ev Event) {
	e.push(c, kind, ev.I0, ev.I1, ev.P, a)
}

// ScheduleAfter delivers (kind, ev) to actor a, d cycles from now,
// saturating at Forever.
func (e *Engine) ScheduleAfter(d Cycle, a Actor, kind Kind, ev Event) {
	e.Schedule(e.saturate(d), a, kind, ev)
}

// At schedules fn to run at cycle c. Scheduling in the past is a
// programming error and panics, because it would silently corrupt
// causality in the pipeline models. Each call allocates the closure:
// use Schedule on hot paths.
func (e *Engine) At(c Cycle, fn func()) {
	e.push(c, 0, 0, 0, fn, nil)
}

// After schedules fn to run d cycles from now, saturating at Forever
// so that `After(Forever - now)` call sites cannot overflow.
func (e *Engine) After(d Cycle, fn func()) {
	e.At(e.saturate(d), fn)
}

// Step fires the next event, advancing the clock to its cycle. It
// reports false when the queue is empty.
//
// The node is read and released before the event fires: Fire may
// schedule, and a schedule may grow the pool out from under any
// pointer into it.
func (e *Engine) Step() bool {
	w := &e.wheel
	i := w.pop()
	if i == 0 {
		return false
	}
	n := &w.pool[i]
	a, kind, ev := n.actor, n.kind, Event{I0: n.i0, I1: n.i1, P: n.p}
	w.release(i)
	e.now = w.base
	e.fired++
	if a != nil {
		a.Fire(kind, ev)
	} else {
		ev.P.(func())()
	}
	return true
}

// NextAt reports the cycle of the earliest pending event, or false
// when the queue is empty. It is the horizon of a DomainEngine
// window: as long as a domain's private activity stays strictly
// before NextAt, nothing else in the machine can observe those
// cycles, so they need not pass through the queue.
func (e *Engine) NextAt() (Cycle, bool) { return e.wheel.peekAt() }

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events whose time is <= deadline, then stops with
// the clock at max(now, deadline): if the queue drains (or only
// later events remain) before the deadline, the clock still advances
// to it, so repeated RunUntil calls see monotonic time. Events
// scheduled beyond the deadline remain queued, and Fired counts only
// events actually executed — idle time passing never increments it.
func (e *Engine) RunUntil(deadline Cycle) {
	for {
		t, ok := e.NextAt()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
		// No pending event is earlier than the deadline, so the
		// wheel window can jump forward wholesale (spilling any
		// overflow events that fall into the new window).
		e.wheel.advanceTo(deadline)
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.wheel.len() }

// Fired reports the total number of events executed, a cheap progress
// and regression metric for tests and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }
