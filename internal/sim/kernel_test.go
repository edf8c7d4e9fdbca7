package sim

import (
	"testing"
)

// splitmix64 is the deterministic generator for equivalence
// workloads: the wheel and the reference heap must see the identical
// schedule.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosActor drives a deterministic but adversarial schedule: every
// fire logs itself and reschedules with a pseudo-random horizon
// drawn from a mix of short (in-window), boundary (around wheelSize)
// and far-future (overflow) delays, including zero-delay same-cycle
// chains.
type chaosActor struct {
	eng    queue
	rng    *splitmix64
	budget int
	log    []uint64
}

func (a *chaosActor) Fire(kind Kind, ev Event) {
	a.log = append(a.log, uint64(a.eng.Now())<<20|uint64(kind)<<8|ev.I0&0xff)
	if a.budget <= 0 {
		return
	}
	n := int(a.rng.next()%3) + 1
	for i := 0; i < n && a.budget > 0; i++ {
		a.budget--
		var d Cycle
		switch a.rng.next() % 8 {
		case 0:
			d = 0 // same-cycle chain
		case 1, 2, 3:
			d = Cycle(a.rng.next() % 64) // short latency
		case 4, 5:
			d = Cycle(a.rng.next() % wheelSize) // anywhere in window
		case 6:
			d = wheelSize - 2 + Cycle(a.rng.next()%5) // window boundary
		default:
			d = wheelSize + Cycle(a.rng.next()%500000) // overflow
		}
		a.eng.ScheduleAfter(d, a, Kind(a.rng.next()%7), Event{I0: a.rng.next() % 256})
	}
}

func runChaos(e queue, seed uint64) (log []uint64, fired uint64, end Cycle) {
	rng := splitmix64(seed)
	a := &chaosActor{eng: e, rng: &rng, budget: 20000}
	for i := 0; i < 16; i++ {
		e.Schedule(Cycle(rng.next()%1000), a, 0, Event{I0: uint64(i)})
	}
	e.Run()
	return a.log, e.Fired(), e.Now()
}

// TestKernelEquivalence proves the wheel and the reference heap
// (refheap_test.go) fire an adversarial event mix in the identical
// order, cycle for cycle.
func TestKernelEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		wl, wf, wn := runChaos(NewEngine(), seed)
		hl, hf, hn := runChaos(&heapEngine{}, seed)
		if wf != hf || wn != hn {
			t.Fatalf("seed %d: wheel fired=%d end=%d, heap fired=%d end=%d",
				seed, wf, wn, hf, hn)
		}
		if len(wl) != len(hl) {
			t.Fatalf("seed %d: log lengths differ: wheel %d, heap %d", seed, len(wl), len(hl))
		}
		for i := range wl {
			if wl[i] != hl[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel %x, heap %x",
					seed, i, wl[i], hl[i])
			}
		}
	}
}

// TestKernelPoolRecycles checks the node pool's bookkeeping on the
// chaos schedule: the pool never holds more nodes than the peak number
// of pending events plus the sentinel, because Step frees a node before
// its event fires and the free list hands it straight back, and once
// the queue drains every node is back on the free list.
func TestKernelPoolRecycles(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		e := NewEngine()
		rng := splitmix64(seed)
		a := &chaosActor{eng: e, rng: &rng, budget: 20000}
		for i := 0; i < 16; i++ {
			e.Schedule(Cycle(rng.next()%1000), a, 0, Event{I0: uint64(i)})
		}
		peak := e.Pending()
		for e.Step() {
			peak = max(peak, e.Pending())
		}
		w := &e.wheel
		if n := len(w.pool); n > peak+1 {
			t.Fatalf("seed %d: pool grew to %d nodes, peak pending %d", seed, n, peak)
		}
		free := 0
		for i := w.free; i != 0; i = w.pool[i].next {
			if n := &w.pool[i]; n.p != nil || n.actor != nil {
				t.Fatalf("seed %d: free node %d still holds a payload", seed, i)
			}
			free++
		}
		if free != len(w.pool)-1 || w.count != 0 || w.summary != 0 {
			t.Fatalf("seed %d: %d of %d nodes free after draining (count %d, summary %x)",
				seed, free, len(w.pool)-1, w.count, w.summary)
		}
	}
}

// TestKernelEquivalenceRunUntil drives both queues through the same
// schedule in RunUntil slices (the chaos schedule plus idle gaps) and
// demands identical clocks, fired counts and pending counts at every
// slice boundary.
func TestKernelEquivalenceRunUntil(t *testing.T) {
	mk := func(e queue) *chaosActor {
		rng := splitmix64(42)
		a := &chaosActor{eng: e, rng: &rng, budget: 5000}
		e.Schedule(0, a, 0, Event{})
		return a
	}
	we, he := NewEngine(), &heapEngine{}
	wa, ha := mk(we), mk(he)
	for d := Cycle(0); we.Pending() > 0 || he.Pending() > 0; d += 7919 {
		we.RunUntil(d)
		he.RunUntil(d)
		if we.Now() != he.Now() || we.Fired() != he.Fired() || we.Pending() != he.Pending() {
			t.Fatalf("at deadline %d: wheel (now=%d fired=%d pending=%d), heap (now=%d fired=%d pending=%d)",
				d, we.Now(), we.Fired(), we.Pending(), he.Now(), he.Fired(), he.Pending())
		}
	}
	if len(wa.log) != len(ha.log) {
		t.Fatalf("log lengths differ: wheel %d, heap %d", len(wa.log), len(ha.log))
	}
	for i := range wa.log {
		if wa.log[i] != ha.log[i] {
			t.Fatalf("firing %d diverged", i)
		}
	}
}

// TestAfterSaturatesAtForever is the regression test for the
// `After(Forever - now)` overflow audit: delays that would pass
// Forever clamp to it instead of wrapping negative.
func TestAfterSaturatesAtForever(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	fired := false
	e.After(Forever-e.Now(), func() { fired = true }) // exact boundary
	e.After(Forever, func() {})                       // would overflow without saturation
	e.At(Forever, func() {})
	e.Run()
	if !fired {
		t.Fatal("boundary event never fired")
	}
	if e.Now() != Forever {
		t.Fatalf("clock ended at %d, want Forever", e.Now())
	}
}

// TestScheduleTyped checks payload delivery through the typed path.
func TestScheduleTyped(t *testing.T) {
	e := NewEngine()
	type rec struct{ v int }
	r := &rec{v: 7}
	var got []string
	a := actorFunc(func(kind Kind, ev Event) {
		if p, ok := ev.P.(*rec); ok && p.v == 7 && kind == 3 && ev.I0 == 11 && ev.I1 == 22 {
			got = append(got, "ok")
		} else {
			got = append(got, "bad")
		}
	})
	e.Schedule(5, a, 3, Event{I0: 11, I1: 22, P: r})
	e.ScheduleAfter(9, a, 3, Event{I0: 11, I1: 22, P: r})
	e.Run()
	if len(got) != 2 || got[0] != "ok" || got[1] != "ok" {
		t.Fatalf("typed delivery broken: %v", got)
	}
}

type actorFunc func(kind Kind, ev Event)

func (f actorFunc) Fire(kind Kind, ev Event) { f(kind, ev) }

// TestRunUntilWindowJump covers the wheel-specific RunUntil path: the
// window must jump across a long idle gap without disturbing a
// far-future (overflow-resident) event.
func TestRunUntilWindowJump(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	rec := func() { order = append(order, e.Now()) }
	e.At(10, rec)
	e.At(10_000_000, rec) // deep overflow
	e.RunUntil(50)
	if e.Now() != 50 || e.Fired() != 1 || e.Pending() != 1 {
		t.Fatalf("after first slice: now=%d fired=%d pending=%d", e.Now(), e.Fired(), e.Pending())
	}
	e.RunUntil(9_999_999) // idle jump across many window laps
	if e.Now() != 9_999_999 || e.Fired() != 1 {
		t.Fatalf("idle advance misbehaved: now=%d fired=%d", e.Now(), e.Fired())
	}
	// New near events interleave correctly with the resident one.
	e.At(9_999_999, rec)
	e.Run()
	want := []Cycle{10, 9_999_999, 10_000_000}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}

// selfActor reschedules itself forever: the canonical steady-state
// scheduling loop.
type selfActor struct {
	eng *Engine
	d   Cycle
	n   int
}

func (a *selfActor) Fire(kind Kind, ev Event) {
	a.n++
	a.eng.ScheduleAfter(a.d, a, kind, ev)
}

// TestZeroAllocScheduling is the allocation-regression gate for the
// kernel: steady-state typed scheduling performs zero heap allocations
// per event, whether the delay is short, the longest the window holds
// (wheelSize-1, the last cycle before base+wheelSize) or far enough
// past the window (40 laps) that every event goes through the overflow
// heap and spills back into the wheel.
func TestZeroAllocScheduling(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Cycle
	}{
		{"short", 3},
		{"window", wheelSize - 1},
		{"overflow", wheelSize * 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			a := &selfActor{eng: e, d: tc.d}
			e.Schedule(0, a, 1, Event{P: a})
			// Run the chain through a full window lap first, so the
			// node pool and the overflow heap's backing array have
			// grown to the chain's depth, as they have within the
			// steady state of a real run.
			for i := 0; i < wheelSize+64; i++ {
				e.Step()
			}
			avg := testing.AllocsPerRun(200, func() { e.Step() })
			if avg != 0 {
				t.Fatalf("steady-state scheduling allocates %.2f allocs/event, want 0", avg)
			}
		})
	}
}
