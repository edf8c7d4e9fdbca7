package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Conservative time-windowed execution over one Engine.
//
// A DomainEngine partitions a machine into domains that can advance
// privately — in this codebase, the per-core CPU + L1 subsystems of a
// multi-core machine — while everything shared (bus, DRAM, page
// mapper, sharded ULMT, miss handling) stays on the single global
// event queue. Each domain exposes an *armed* occurrence (its next
// issue-cycle step, kept out of the queue) and can *stretch*: advance
// its private state off the engine clock up to a horizon, buffering
// any cross-domain effects. Stretches of different domains touch
// disjoint state, so they may run concurrently on a worker pool.
//
// Step() picks the next thing to execute under a canonical order that
// depends only on simulation state, never on worker count:
//
//  1. if the earliest queue event is due no later than the earliest
//     armed occurrence, fire it (queue wins ties);
//  2. otherwise open a window [ts, H): ts = the earliest armed
//     occurrence, H = the earliest queue event (the conservative
//     bound — nothing outside a domain can affect it before H), or
//     ts + cap when a window cap is set, whichever is smaller;
//  3. every domain armed before H stretches to H — in parallel when
//     workers > 1, serially otherwise, with identical results because
//     stretches are private by contract;
//  4. at the barrier, each stretched domain commits its buffered
//     effects into the queue in domain-index order.
//
// The horizon H is computed from the queue alone, and commits replay
// in a fixed order, so the sequence of fired events — and with it
// every simulation result — is byte-identical for any worker count.
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
	// touch the engine or shared state: it may run on another
	// goroutine, concurrently with other domains' stretches.
	Stretch(horizon Cycle)
	// Commit publishes the buffered effects into the event queue. It
	// is called sequentially at the window barrier, in domain order.
	Commit()
}

// DomainEngine drives an Engine plus a set of Domains under the
// windowed schedule above.
type DomainEngine struct {
	eng     *Engine
	doms    []Domain
	workers int
	cap     Cycle
	active  []int

	// Worker pool state. Workers park on start; each window hands the
	// pool a horizon and an index sequence, and the last worker to
	// drain it signals done. The pool is lazily spawned on the first
	// parallel window and must be released with Close.
	started bool
	start   chan struct{}
	done    chan struct{}
	next    atomic.Int64
	pending atomic.Int64
	horizon Cycle
	mu      sync.Mutex
	panicv  any
}

// NewDomainEngine wraps eng. workers < 1 means GOMAXPROCS; 1 keeps
// every stretch on the calling goroutine (the sequential oracle for
// the parallel mode — the schedule is identical by construction).
func NewDomainEngine(eng *Engine, workers int) *DomainEngine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &DomainEngine{eng: eng, workers: workers}
}

// Add registers a domain. Registration order is the canonical domain
// order used for tie-breaking and commit sequencing.
func (de *DomainEngine) Add(d Domain) { de.doms = append(de.doms, d) }

// SetWindowCap bounds window spans to at most cap cycles (0 = only
// the queue bounds them). Results are cap-invariant — slicing a
// stretch never changes where it ends — so this exists for the
// equivalence fuzzer, not for tuning.
func (de *DomainEngine) SetWindowCap(c Cycle) { de.cap = c }

// Step executes the next schedulable unit — one queue event or one
// whole window — and reports whether anything remained to execute.
func (de *DomainEngine) Step() bool {
	best := -1
	var ts Cycle
	for i, d := range de.doms {
		if at, ok := d.ArmedAt(); ok && (best < 0 || at < ts) {
			best, ts = i, at
		}
	}
	tq, qok := de.eng.NextAt()
	if best < 0 {
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
	if de.cap > 0 && de.cap < h-ts {
		h = ts + de.cap
	}
	if qok && tq < h {
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
	de.runStretches(h)
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

func (de *DomainEngine) runStretches(h Cycle) {
	n := len(de.active)
	if de.workers <= 1 || n <= 1 {
		for _, i := range de.active {
			de.doms[i].Stretch(h)
		}
		return
	}
	if !de.started {
		de.started = true
		de.start = make(chan struct{})
		de.done = make(chan struct{})
		for k := 0; k < de.workers; k++ {
			go de.worker()
		}
	}
	w := de.workers
	if w > n {
		w = n
	}
	de.horizon = h
	de.next.Store(0)
	de.pending.Store(int64(w))
	for k := 0; k < w; k++ {
		de.start <- struct{}{}
	}
	<-de.done
	de.mu.Lock()
	pv := de.panicv
	de.panicv = nil
	de.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

// worker parks until a window is handed to the pool, then pulls
// active-domain indices off the shared cursor until the window
// drains. The channel send/receive pair orders the window's state
// publication and collection; a stretch panic is latched and
// re-raised on the driving goroutine.
func (de *DomainEngine) worker() {
	for range de.start {
		de.stretchSome()
		if de.pending.Add(-1) == 0 {
			de.done <- struct{}{}
		}
	}
}

func (de *DomainEngine) stretchSome() {
	defer func() {
		if r := recover(); r != nil {
			de.mu.Lock()
			if de.panicv == nil {
				de.panicv = r
			}
			de.mu.Unlock()
		}
	}()
	n := int64(len(de.active))
	for {
		i := de.next.Add(1) - 1
		if i >= n {
			return
		}
		de.doms[de.active[i]].Stretch(de.horizon)
	}
}

// Close releases the worker pool. Safe to call multiple times and on
// an engine that never went parallel; the DomainEngine must not Step
// again afterward unless workers = 1.
func (de *DomainEngine) Close() {
	if de.started {
		de.started = false
		close(de.start)
	}
}
