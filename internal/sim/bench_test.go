package sim

import "testing"

func BenchmarkEngineChain(b *testing.B) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
}

// BenchmarkEngineFanOut queues all b.N closure events over 1024 cycles
// before it runs them, so the queue is b.N deep: far deeper than any
// workload (tens of events), which makes it a measure of a full queue
// draining, not of a run's steady state.
func BenchmarkEngineFanOut(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.At(Cycle(i%1024), func() {})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineTypedChain is the zero-allocation steady state: a
// long-lived actor rescheduling itself through the typed API.
func BenchmarkEngineTypedChain(b *testing.B) {
	e := NewEngine()
	a := &benchActor{eng: e, d: 1, limit: b.N}
	e.Schedule(0, a, 1, Event{})
	e.Run()
}

type benchActor struct {
	eng   *Engine
	d     Cycle
	n     int
	limit int
}

func (a *benchActor) Fire(kind Kind, ev Event) {
	a.n++
	if a.n < a.limit {
		a.eng.ScheduleAfter(a.d, a, kind, ev)
	}
}

// mixedHorizons is the latency profile of a real run: mostly cache
// and bus latencies, some DRAM, occasional ULMT sessions, and rare
// far-future events that exercise the overflow heap.
var mixedHorizons = [16]Cycle{
	1, 3, 2, 19, 5, 146, 1, 40, 2, 181, 3, 3000, 1, 19, 5, 120000,
}

// mixedChains is how many event chains the mixed-horizon benchmarks
// keep in flight: about the measured peak queue depth of the
// single-core perfbench workloads (15 events pending on
// stream-noulmt, 32 on chase-repl, 35 on paper-matrix's tiny -exp
// all; DESIGN.md "The event kernel").
const mixedChains = 24

// BenchmarkEngineMixedHorizon schedules through the full horizon mix,
// including overflow spills and window advances, with mixedChains
// chains in flight.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	e := NewEngine()
	a := &mixedActor{eng: e, limit: b.N}
	for i := 0; i < mixedChains; i++ {
		e.Schedule(Cycle(i), a, 0, Event{})
	}
	e.Run()
}

type mixedActor struct {
	eng   *Engine
	n     int
	limit int
}

func (a *mixedActor) Fire(kind Kind, ev Event) {
	a.n++
	if a.n < a.limit {
		a.eng.ScheduleAfter(mixedHorizons[a.n&15], a, kind, ev)
	}
}

// BenchmarkEngineMixedHorizonHeap is the same mix on the reference
// container/heap queue (refheap_test.go), for before/after comparison.
func BenchmarkEngineMixedHorizonHeap(b *testing.B) {
	e := &heapEngine{}
	a := &mixedHeapActor{eng: e, limit: b.N}
	for i := 0; i < mixedChains; i++ {
		e.Schedule(Cycle(i), a, 0, Event{})
	}
	e.Run()
}

// mixedHeapActor is mixedActor on the reference heap, kept a concrete
// type so neither benchmark pays for an interface call.
type mixedHeapActor struct {
	eng   *heapEngine
	n     int
	limit int
}

func (a *mixedHeapActor) Fire(kind Kind, ev Event) {
	a.n++
	if a.n < a.limit {
		a.eng.ScheduleAfter(mixedHorizons[a.n&15], a, kind, ev)
	}
}

// BenchmarkEngineFanOutTyped replays the fan-out shape without the
// closure shim.
func BenchmarkEngineFanOutTyped(b *testing.B) {
	e := NewEngine()
	var a sinkActor
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i%1024), &a, 0, Event{})
	}
	b.ResetTimer()
	e.Run()
}

type sinkActor struct{ n int }

func (a *sinkActor) Fire(kind Kind, ev Event) { a.n++ }
