package core

import (
	"fmt"

	"ulmt/internal/bus"
	"ulmt/internal/cache"
	"ulmt/internal/cpu"
	"ulmt/internal/dram"
	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/queue"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
	"ulmt/internal/workload"
)

// System is one assembled machine executing one application run.
type System struct {
	cfg Config
	eng *sim.Engine

	mapper *mem.PageMapper
	l1     *cache.Cache
	l2     *cache.Cache
	fsb    *bus.Bus
	ram    *dram.DRAM
	mp     *memproc.MemProc

	q1     *queue.Queue
	q2     *queue.Queue
	q3     *queue.Queue
	filter *queue.Filter

	// ulmt is the private memory thread; the multiprogramming
	// scheduler switches its algorithm together with the application
	// (§3.4).
	ulmt *memThread

	// shards, when non-nil, replaces the private memory thread with
	// the shared sharded ULMT of a multi-core machine (shard.go):
	// queue 2 becomes a staging buffer the shard set drains, and
	// queue 3 moves into the shard set's per-shard push rings. coreID
	// identifies this core to the shard set.
	shards *shardSet
	coreID int

	proc *cpu.Processor

	// active is the Fig 1-(c) active-prefetching thread, if enabled.
	active *activeState

	// l1MissPool recycles l1Miss records; l2Miss records are NOT
	// pooled, because a push can complete a miss while a demand-reply
	// event still holds its pointer.
	l1MissPool sim.Pool[l1Miss]

	// activeEmits buffers the active thread's session's emitted
	// prefetch lines, reused for the reason memThread.emits is.
	activeEmits []mem.Line

	// Outstanding-miss bookkeeping. pendingL1 is indexed by L1 MSHR
	// id, not by line: an outstanding L1 miss and its MSHR are created
	// and released in lockstep (nothing steals L1 MSHRs — pushes
	// arrive at the L2), so MSHRFor doubles as the line lookup and the
	// per-miss map the slice replaced disappears from the hot path.
	pendingL1  []*l1Miss
	pendingL1N int
	pendingL2  map[mem.Line]*l2Miss

	// System-level write-back queue: L2 victims headed to memory.
	wbOut []mem.Line

	issueBusy bool
	ulmtBusy  bool

	// Measurements.
	missDist      *stats.Histogram
	lastMissAt    sim.Cycle
	sawMiss       bool
	outcomes      stats.PrefetchOutcomes
	demandMisses  uint64
	prefReqsToMem uint64
	pushesToL2    uint64
	q3Drops       uint64
	xMatchDemand  uint64
	xMatchPush    uint64

	// OS events (§3.4 page re-mapping).
	remapsHandled  uint64
	remapRowsMoved uint64

	// Fault injection. faults is nil unless a plan is configured;
	// every fault path checks that first, so the unfaulted event flow
	// is untouched. The event counters index the plan's stateless
	// per-site decision streams; inj records what was injected.
	faults   *fault.Plan
	obsSeen  uint64
	pushSeen uint64
	inj      fault.Injected

	// Occupancy watchdog (graceful degradation under backlog).
	backoffUntil    sim.Cycle
	degradedSheds   uint64
	degradedDropped uint64
}

// l1Miss tracks one outstanding L1 miss and the processor requests
// merged into it. Records recycle through System.l1MissPool: one is
// referenced only by pendingL1 between Get and Put, so pooling cannot
// leave a stale pointer in a scheduled event.
type l1Miss struct {
	mshrID  int
	write   bool
	waiters []l1Waiter
}

// l1Waiter is one processor request merged into an L1 miss: the
// completer and the request id it expects back.
type l1Waiter struct {
	done cpu.Completer
	id   uint64
}

// l2Miss tracks one outstanding L2 miss: the request travelling to
// memory and every L1 miss waiting on the line.
type l2Miss struct {
	line      mem.Line
	mshrID    int
	prefetch  bool // processor-side prefetch request
	satisfied bool // MSHR stolen by a matching push
	completed bool // fill done; late replies are discarded
	waiters   []l2Waiter
}

type l2Waiter struct {
	l1Line mem.Line
	write  bool
}

// NewSystem builds a machine from the configuration, or reports the
// first configuration error.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s, err := newSystemOn(cfg, eng, bus.New(eng, cfg.Bus), d,
		mem.NewPageMapper(cfg.LinearPages, cfg.Seed))
	if err != nil {
		return nil, err
	}
	if s.faults != nil {
		s.wireFaultHooks()
	}
	return s, nil
}

// newSystemOn assembles one core's private machinery — L1/L2, the
// controller queues, its processor-side state — around shared
// infrastructure handed in by the caller: the engine, the front-side
// bus, the DRAM and the page mapper. NewSystem passes freshly built
// singletons (the single-core machine); NewMultiSystem passes one set
// shared by every core. Fault bandwidth hooks are NOT wired here —
// they are per-machine, not per-core — so callers wire them exactly
// once.
func newSystemOn(cfg Config, eng *sim.Engine, fsb *bus.Bus, ram *dram.DRAM, mapper *mem.PageMapper) (*System, error) {
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	q1, err := queue.New("q1", cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	q2, err := queue.New("q2", cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	q3, err := queue.New("q3", cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	filter, err := queue.NewFilter(cfg.FilterSize)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		eng:       eng,
		mapper:    mapper,
		l1:        l1,
		l2:        l2,
		fsb:       fsb,
		ram:       ram,
		q1:        q1,
		q2:        q2,
		q3:        q3,
		filter:    filter,
		pendingL1: make([]*l1Miss, cfg.L1.MSHRs),
		pendingL2: make(map[mem.Line]*l2Miss),
		missDist:  stats.MissDistanceHistogram(),
	}
	if cfg.ULMT != nil || cfg.Active != nil {
		s.mp, err = memproc.New(cfg.MemProc, ram)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Active != nil {
		ac := *cfg.Active
		if ac.MaxAhead <= 0 {
			ac.MaxAhead = 12
		}
		s.active = &activeState{cfg: ac, emitted: make(map[mem.Line]int)}
	}
	if cfg.Faults.Enabled() {
		s.faults = cfg.Faults
	}
	s.ulmt = newMemThread(cfg.ULMT, cfg, &s.inj)
	return s, nil
}

// wireFaultHooks installs the bandwidth fault hooks on the bus and
// DRAM. Only the classes the plan actually configures get a hook, so
// a drops-only plan leaves the bandwidth paths hook-free.
func (s *System) wireFaultHooks() {
	fc := s.faults.Config()
	if fc.BrownoutPeriod > 0 {
		s.fsb.SetStretch(func(now, dur sim.Cycle) sim.Cycle {
			stretched := s.faults.BusStretch(now, dur)
			if stretched > dur {
				s.inj.BusSlowTransfers++
				s.inj.BusSlowCycles += stretched - dur
			}
			return stretched
		})
	}
	if fc.SpikePeriod > 0 {
		s.ram.SetPenalty(func(now sim.Cycle) sim.Cycle {
			p := s.faults.BankPenalty(now)
			if p > 0 {
				s.inj.BankPenalties++
				s.inj.BankPenaltyCycles += p
			}
			return p
		})
	}
}

// scheduleFaultRemaps turns the plan's remap events into ScheduleRemap
// calls against live workload addresses, so each event retargets a
// page the application actually touches.
func (s *System) scheduleFaultRemaps(ops []workload.Op) {
	if s.faults == nil || len(ops) == 0 {
		return
	}
	for _, ev := range s.faults.RemapSchedule() {
		idx := int(ev.Pick % uint64(len(ops)))
		for i := 0; i < len(ops); i++ {
			op := ops[(idx+i)%len(ops)]
			if op.Kind == workload.Compute {
				continue
			}
			s.ScheduleRemap(ev.At, op.Addr)
			s.inj.RemapsScheduled++
			break
		}
	}
}

// Engine exposes the simulation clock for callers that interleave
// other activity (tests, the profiling example).
func (s *System) Engine() *sim.Engine { return s.eng }

// Run executes the op stream to completion and returns the
// measurements.
func (s *System) Run(app string, ops []workload.Op) Results {
	s.startRun(ops)
	s.eng.Run()
	return s.results(app)
}

// startRun attaches the processor and schedules the initial events.
// Shared by Run and RunControlled (control.go).
func (s *System) startRun(ops []workload.Op) {
	proc, err := cpu.New(s.eng, s.cfg.CPU, s, ops)
	if err != nil {
		// NewSystem validated cfg.CPU; failing here is an internal
		// invariant violation, not a user error.
		panic(err)
	}
	s.proc = proc
	s.proc.Start(nil)
	if s.active != nil {
		s.eng.At(0, s.pumpActive)
	}
	s.scheduleFaultRemaps(ops)
}

func (s *System) results(app string) Results {
	r := Results{
		App:                  app,
		Cycles:               s.eng.Now(),
		Exec:                 s.proc.Breakdown(),
		DemandMissesToMemory: s.demandMisses,
		PrefetchReqsToMemory: s.prefReqsToMem,
		PushesToL2:           s.pushesToL2,
		Outcomes:             s.outcomes,
		MissDistance:         s.missDist,
		Bus:                  s.fsb.Stats(),
		DRAM:                 s.ram.Stats(),
		L1:                   s.l1.Stats(),
		L2:                   s.l2.Stats(),
		FilterDropped:        s.filter.Dropped(),
		Q2Drops:              s.q2.Drops(),
		Q3Drops:              s.q3Drops,
		CrossMatchedDemand:   s.xMatchDemand,
		CrossMatchedPush:     s.xMatchPush,
		Faults:               s.inj,
		DegradedSheds:        s.degradedSheds,
		DegradedDrops:        s.degradedDropped,
		CacheFP:              s.CacheFingerprint(),
		OpsRetired:           s.proc.Retired,
		CPUIssueCycles:       s.proc.IssueCycles,
		CPUComputeCycles:     s.proc.ComputeCycles,
		EventsFired:          s.eng.Fired(),
	}
	// Fold terminal cache state into the Fig 9 outcome categories.
	r.Outcomes.Hits = s.l2.Stats().PrefetchHits
	r.Outcomes.Replaced = s.l2.Stats().PrefetchEvictsUnused
	r.BusUtilization = r.Bus.Utilization(r.Cycles)
	r.PrefetchBusShare = r.Bus.PrefetchShare(r.Cycles)
	if s.mp != nil {
		r.ULMT = s.mp.Stats()
	}
	if s.cfg.Conven != nil {
		r.ConvenIssued = s.cfg.Conven.Issued()
	}
	return r
}

// --- cpu.Memory implementation: the cache hierarchy front door ---

// Load implements cpu.Memory.
func (s *System) Load(a mem.Addr, id uint64, done cpu.Completer) { s.access(a, false, id, done) }

// Store implements cpu.Memory. Stores are write-allocate: a miss
// fetches the line like a load before dirtying it.
func (s *System) Store(a mem.Addr, id uint64, done cpu.Completer) { s.access(a, true, id, done) }

// windowProbeL1 is the synchronous L1 lookup installed on windowed
// multicore processors (cpu.SetWindowed). On a hit it performs
// exactly the cache work the event-driven hit path does — cache.Probe
// applies Access's demand-hit effects, so LRU, dirty bits and
// statistics move identically — and reports the L1 round trip; the
// stretch retires the access inline and no Load/Store follows. On a
// miss it touches nothing (Probe counts neither an access nor a miss
// then): the stretch hands over and access() performs the single
// canonical miss lookup. A stretch runs ahead of the shared queue,
// so the shared page mapper is consulted strictly read-only (Lookup:
// no frame allocation, no TLB fill): Translate hands out frames in
// first-touch order, and a first touch from inside a stretch would
// move that order. The L1 it mutates on a hit is this core's own. An
// unmapped page reports a miss, and the sequential resume path
// performs the canonical first-touch through Translate — including
// the corner where a fault-plan Remap recycled a frame under a
// still-resident L1 line, which access() then resolves.
func (s *System) windowProbeL1(va mem.Addr, write bool) (sim.Cycle, bool) {
	pa, ok := s.mapper.Lookup(va)
	if !ok {
		return 0, false
	}
	if _, hit := s.l1.Probe(mem.LineOf(pa, s.cfg.L1.Line), write); !hit {
		return 0, false
	}
	return s.cfg.L1HitRT, true
}

func (s *System) access(va mem.Addr, write bool, id uint64, done cpu.Completer) {
	pa := s.mapper.Translate(va)
	l1l := mem.LineOf(pa, s.cfg.L1.Line)
	if s.l1.Access(l1l, write).Hit {
		s.eng.ScheduleAfter(s.cfg.L1HitRT, s, evDone,
			sim.Event{I0: id, I1: uint64(cpu.LevelL1), P: done})
		return
	}
	// L1 demand miss: the processor-side prefetcher observes it.
	if s.cfg.Conven != nil {
		for _, pl := range s.cfg.Conven.OnMiss(l1l) {
			s.issuePrefetchIntoL1(pl)
		}
	}
	s.missToL2(l1l, write, false, id, done)
}

// issuePrefetchIntoL1 injects one processor-side prefetch: it walks
// the same L1-miss path as a demand access but is tagged as a
// prefetch and completes silently.
func (s *System) issuePrefetchIntoL1(l1l mem.Line) {
	if s.l1.Contains(l1l) {
		return
	}
	if s.l1.MSHRFor(l1l) >= 0 {
		return // already outstanding
	}
	if s.l1.FreeMSHRs() <= s.cfg.CPU.MaxPendingLoads {
		// Keep headroom for demand misses; hardware prefetchers
		// yield when the MSHR file is nearly full.
		return
	}
	s.missToL2(l1l, false, true, 0, nil)
}

// missToL2 handles an L1 miss (demand or prefetch): merge into an
// existing L1 MSHR, consult the L2 after the lookup delay, and on an
// L2 miss send the request to memory.
func (s *System) missToL2(l1l mem.Line, write, isPrefetch bool, reqID uint64, done cpu.Completer) {
	if id := s.l1.MSHRFor(l1l); id >= 0 {
		m := s.pendingL1[id]
		if done != nil {
			m.waiters = append(m.waiters, l1Waiter{done: done, id: reqID})
		}
		if write {
			m.write = true
		}
		return
	}
	mshrID, ok := s.l1.AllocMSHR(l1l, isPrefetch)
	if !ok {
		if isPrefetch {
			return // drop the prefetch
		}
		// Structural stall: retry shortly. The CPU's pending-load
		// bound keeps this path rare (closure shim is fine here).
		s.eng.After(2, func() { s.missToL2(l1l, write, isPrefetch, reqID, done) })
		return
	}
	m := s.l1MissPool.Get()
	*m = l1Miss{mshrID: mshrID, write: write, waiters: m.waiters[:0]}
	if done != nil {
		m.waiters = append(m.waiters, l1Waiter{done: done, id: reqID})
	}
	s.pendingL1[mshrID] = m
	s.pendingL1N++

	l2l := mem.Rescale(l1l, s.cfg.L1.Line, s.cfg.L2.Line)
	res := s.l2.Access(l2l, false)
	if res.Hit {
		// FirstPrefetchTouch events surface through the L2 cache
		// stats as Fig 9 Hits; see results().
		s.eng.ScheduleAfter(s.cfg.L2HitRT, s, evCompleteL1,
			sim.Event{I0: uint64(l1l), I1: uint64(cpu.LevelL2)})
		return
	}
	// L2 miss: merge into an outstanding line request if any. The
	// processor-visible completion callbacks live on the L1 miss
	// record, so merging only needs the line identity.
	if pm, ok := s.pendingL2[l2l]; ok && !pm.completed {
		pm.waiters = append(pm.waiters, l2Waiter{l1Line: l1l, write: write})
		return
	}
	if _, ok := s.l2.AllocMSHR(l2l, isPrefetch); !ok {
		s.eng.After(4, func() { s.retryL2Miss(l1l, l2l, write, isPrefetch) })
		return
	}
	s.sendToMemory(l1l, l2l, write, isPrefetch, s.cfg.L2HitRT)
}

// sendToMemory creates the outstanding-miss record (the MSHR was
// already allocated by the caller) and launches the request across
// the bus after lookupDelay.
func (s *System) sendToMemory(l1l, l2l mem.Line, write, isPrefetch bool, lookupDelay sim.Cycle) {
	pm := s.pendingL2[l2l]
	if pm == nil {
		pm = &l2Miss{line: l2l, mshrID: s.l2.MSHRFor(l2l), prefetch: isPrefetch}
		s.pendingL2[l2l] = pm
	}
	pm.waiters = append(pm.waiters, l2Waiter{l1Line: l1l, write: write})
	var prefetchClass uint64
	if isPrefetch {
		prefetchClass = 1
	}
	s.eng.ScheduleAfter(lookupDelay, s, evSendReq, sim.Event{I0: prefetchClass, P: pm})
}

// retryL2Miss re-attempts MSHR allocation for an L1 miss whose L2
// MSHR file was full at first try.
func (s *System) retryL2Miss(l1l, l2l mem.Line, write, isPrefetch bool) {
	if pm, ok := s.pendingL2[l2l]; ok && !pm.completed {
		pm.waiters = append(pm.waiters, l2Waiter{l1Line: l1l, write: write})
		return
	}
	if s.l2.Contains(l2l) {
		s.completeL1(l1l, cpu.LevelL2)
		return
	}
	if _, ok := s.l2.AllocMSHR(l2l, isPrefetch); !ok {
		s.eng.After(4, func() { s.retryL2Miss(l1l, l2l, write, isPrefetch) })
		return
	}
	s.sendToMemory(l1l, l2l, write, isPrefetch, 0)
}

// completeL1 fills the L1 line and releases every processor request
// merged on it.
func (s *System) completeL1(l1l mem.Line, lvl cpu.Level) {
	id := s.l1.MSHRFor(l1l)
	if id < 0 {
		return
	}
	m := s.pendingL1[id]
	s.pendingL1[id] = nil
	s.pendingL1N--
	s.l1.FreeMSHR(id)
	s.l1.Fill(l1l, m.write, len(m.waiters) == 0)
	s.drainL1Writebacks()
	for _, w := range m.waiters {
		w.done.Complete(w.id, lvl)
	}
	// Completions above only schedule events; nothing re-enters the
	// miss path synchronously, so the record is free to recycle.
	s.l1MissPool.Put(m)
}

// drainL1Writebacks moves dirty L1 victims into the L2 (or onward to
// memory when the L2 no longer has the line).
func (s *System) drainL1Writebacks() {
	for {
		l, ok := s.l1.PopWB()
		if !ok {
			return
		}
		l2l := mem.Rescale(l, s.cfg.L1.Line, s.cfg.L2.Line)
		if s.l2.Contains(l2l) {
			s.l2.Access(l2l, true)
		} else {
			s.wbOut = append(s.wbOut, l2l)
			s.pumpMemory()
		}
	}
}

// completeL2 fills the L2 and fans completion out to every merged L1
// miss.
func (s *System) completeL2(pm *l2Miss, lvl cpu.Level) {
	if pm.completed {
		return
	}
	pm.completed = true
	delete(s.pendingL2, pm.line)
	if !pm.satisfied {
		s.l2.FreeMSHR(pm.mshrID)
	}
	dirty := false
	for _, w := range pm.waiters {
		if w.write {
			dirty = true
		}
	}
	s.l2.Fill(pm.line, dirty, false)
	s.drainL2Victims()
	for _, w := range pm.waiters {
		s.completeL1(w.l1Line, lvl)
	}
	pm.waiters = nil
}

// drainL2Victims forwards dirty L2 victims to the memory write path.
func (s *System) drainL2Victims() {
	for {
		l, ok := s.l2.PopWB()
		if !ok {
			return
		}
		s.wbOut = append(s.wbOut, l)
	}
	// pumpMemory is triggered by the caller's event flow.
}

// Quiesced reports whether the machine has fully drained: no queued
// requests, no outstanding misses, no buffered write-backs, no bus
// backlog. The chaos suite asserts this after every faulted run — a
// fault schedule must never strand a request.
func (s *System) Quiesced() bool {
	return s.q1.Len() == 0 && s.q2.Len() == 0 && s.q3.Len() == 0 &&
		len(s.wbOut) == 0 && s.pendingL1N == 0 && len(s.pendingL2) == 0 &&
		s.fsb.Backlog() == 0
}

// CacheFingerprint folds the final L1 and L2 contents into a hash,
// for end-state comparison across runs.
func (s *System) CacheFingerprint() uint64 {
	return s.l1.Fingerprint()*0x9e3779b97f4a7c15 + s.l2.Fingerprint()
}

// DrainState summarizes outstanding machine state, for debugging
// what keeps the engine busy after the processor retires.
func (s *System) DrainState() string {
	return fmt.Sprintf("q1=%d q2=%d q3=%d wb=%d pendingL1=%d pendingL2=%d ulmtBusy=%v issueBusy=%v busBacklog=%d",
		s.q1.Len(), s.q2.Len(), s.q3.Len(), len(s.wbOut),
		s.pendingL1N, len(s.pendingL2), s.ulmtBusy, s.issueBusy, s.fsb.Backlog())
}
