package sim

import "container/heap"

// queue is the scheduling surface the equivalence tests drive: both
// the production Engine and the reference heapEngine provide it.
type queue interface {
	Now() Cycle
	Schedule(c Cycle, a Actor, kind Kind, ev Event)
	ScheduleAfter(d Cycle, a Actor, kind Kind, ev Event)
	At(c Cycle, fn func())
	Step() bool
	Run()
	RunUntil(deadline Cycle)
	NextAt() (Cycle, bool)
	Pending() int
	Fired() uint64
}

// heapEngine is the reference the wheel is checked against: the
// simulator's original event queue, a container/heap priority queue
// ordered on (at, seq), with the Engine's clock, saturation and
// ordering rules. container/heap's any-typed interface boxes every
// event on push and pop, which is exactly the cost the wheel removes,
// so it lives only in test code.
type heapEngine struct {
	now   Cycle
	seq   uint64
	fired uint64
	ev    eventHeap
}

func (e *heapEngine) Now() Cycle    { return e.now }
func (e *heapEngine) Pending() int  { return len(e.ev) }
func (e *heapEngine) Fired() uint64 { return e.fired }

func (e *heapEngine) push(c Cycle, kind Kind, i0, i1 uint64, p any, a Actor) {
	if c < e.now {
		panic("sim: event scheduled in the past")
	}
	if c > Forever {
		c = Forever
	}
	e.seq++
	heap.Push(&e.ev, refEvent{at: c, seq: e.seq, kind: kind, i0: i0, i1: i1, p: p, actor: a})
}

func (e *heapEngine) after(d Cycle) Cycle {
	if d < 0 {
		panic("sim: negative delay")
	}
	if d > Forever-e.now {
		return Forever
	}
	return e.now + d
}

func (e *heapEngine) Schedule(c Cycle, a Actor, kind Kind, ev Event) {
	e.push(c, kind, ev.I0, ev.I1, ev.P, a)
}

func (e *heapEngine) ScheduleAfter(d Cycle, a Actor, kind Kind, ev Event) {
	e.Schedule(e.after(d), a, kind, ev)
}

func (e *heapEngine) At(c Cycle, fn func()) { e.push(c, 0, 0, 0, fn, nil) }

func (e *heapEngine) Step() bool {
	if len(e.ev) == 0 {
		return false
	}
	ev := heap.Pop(&e.ev).(refEvent)
	e.now = ev.at
	e.fired++
	if ev.actor != nil {
		ev.actor.Fire(ev.kind, Event{I0: ev.i0, I1: ev.i1, P: ev.p})
	} else {
		ev.p.(func())()
	}
	return true
}

func (e *heapEngine) Run() {
	for e.Step() {
	}
}

func (e *heapEngine) NextAt() (Cycle, bool) {
	if len(e.ev) == 0 {
		return 0, false
	}
	return e.ev[0].at, true
}

func (e *heapEngine) RunUntil(deadline Cycle) {
	for {
		t, ok := e.NextAt()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// refEvent is one reference-queue entry, with the time and sequence
// number the wheel leaves implicit.
type refEvent struct {
	at     Cycle
	seq    uint64
	kind   Kind
	i0, i1 uint64
	p      any
	actor  Actor
}

type eventHeap []refEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = refEvent{}
	*h = old[:n-1]
	return e
}
