package core

import (
	"fmt"

	"ulmt/internal/bus"
	"ulmt/internal/cpu"
	"ulmt/internal/dram"
	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
	"ulmt/internal/workload"
)

// Multi-core scale-out: N main processors, each with private L1/L2
// and its own memory-controller queues, arbitrating over ONE shared
// front-side bus and ONE shared DRAM. Each core runs its own
// application in a disjoint virtual region (like RunMulti, which
// time-shares one core instead). The memory-side prefetcher scales
// two ways:
//
//   - Shards == 0: each core gets its own private ULMT and memory
//     processor, contending in the shared DRAM — N replicas of the
//     paper's Fig 3 machine on one bus. With one core this is
//     event-for-event the single-core machine.
//   - Shards >= 1: one shared correlation algorithm sharded by
//     address across memory-thread instances (shard.go), with
//     batched observation delivery and per-shard push rings routing
//     each prefetch back to the originating core's L2.

// CoreApp is one core's application.
type CoreApp struct {
	Name string
	Ops  []workload.Op
	// ULMT is this core's private memory thread (Shards == 0 only);
	// build each instance with a disjoint table base so private
	// tables do not alias in physical memory. Ignored when sharding.
	ULMT prefetch.Algorithm
}

// MulticoreConfig describes an N-core machine.
type MulticoreConfig struct {
	// Base supplies the per-core machine and the shared bus/DRAM
	// geometry. Its ULMT, Active and Conven fields must be nil:
	// prefetching is configured per core (CoreApp.ULMT) or shared
	// (SharedULMT), and the single-instance prefetcher state of
	// Conven cannot be replicated safely.
	Base Config
	// Apps assigns one application per core; len(Apps) is N.
	Apps []CoreApp
	// Shards selects the memory-side prefetcher layout: 0 for
	// private per-core ULMTs, >= 1 for that many table shards over
	// SharedULMT.
	Shards int
	// SharedULMT is the shared algorithm sharded by address; required
	// exactly when Shards >= 1.
	SharedULMT prefetch.Algorithm
}

// MulticoreResults reports an N-core run: per-core Results plus the
// machine-wide aggregates the conservation invariants check.
type MulticoreResults struct {
	// Cores holds one Results per core (App = the core's app name).
	// Each core's Cycles is the whole machine's run length; FinishAt
	// is when that core's stream retired.
	Cores    []Results
	FinishAt []sim.Cycle
	// TotalCycles is when the machine fully drained.
	TotalCycles sim.Cycle
	// Bus and BusTransfers are the shared bus occupancy and per-class
	// granted-transfer counts.
	Bus          stats.BusStats
	BusTransfers stats.BusTransfers
	// ULMT aggregates memory-thread activity machine-wide; ShardULMT
	// breaks it out per shard when sharding (nil otherwise).
	ULMT      stats.ULMTStats
	ShardULMT []stats.ULMTStats
	// ShardAttrib attributes shared-table traffic per core by row
	// training origin — cross-core sharing vs pollution (nil unless
	// sharding). Indexed by core id.
	ShardAttrib []stats.ShardAttrib
	// ShardFaults counts fault events injected at the shard set (the
	// shared thread's session stalls); per-core injections are in
	// each core's Results.Faults.
	ShardFaults fault.Injected
	EventsFired uint64
}

// MultiSystem is the assembled N-core machine.
type MultiSystem struct {
	mc     MulticoreConfig
	eng    *sim.Engine
	fsb    *bus.Bus
	ram    *dram.DRAM
	mapper *mem.PageMapper
	cores  []*System
	shards *shardSet

	// windowed is fixed at construction: an N >= 2 machine always
	// executes the windowed canonical schedule through de (see
	// DESIGN.md "Windowed multi-core schedule"); a 1-core machine
	// keeps the classic engine loop, which stays event-for-event
	// equal to System.Run.
	windowed bool
	de       *sim.DomainEngine

	finishAt []sim.Cycle
}

// coreDomain adapts one core's processor to sim.Domain. The domain's
// private subsystem is the core's CPU + L1 (stretches probe through
// System.windowProbeL1); everything else stays on the shared queue.
type coreDomain struct{ p *cpu.Processor }

func (d coreDomain) ArmedAt() (sim.Cycle, bool) { return d.p.Armed() }
func (d coreDomain) Stretch(h sim.Cycle)        { d.p.RunStretch(h) }
func (d coreDomain) Commit()                    { d.p.CommitStretch() }

// NewMultiSystem builds the machine, or reports the first
// configuration error.
func NewMultiSystem(mc MulticoreConfig) (*MultiSystem, error) {
	if len(mc.Apps) == 0 {
		return nil, fmt.Errorf("core: multicore needs at least one app")
	}
	if mc.Base.ULMT != nil || mc.Base.Active != nil {
		return nil, fmt.Errorf("core: multicore Base.ULMT/Active must be nil; use CoreApp.ULMT or SharedULMT")
	}
	if mc.Base.Conven != nil {
		return nil, fmt.Errorf("core: multicore does not support Conven (single-instance prefetcher state)")
	}
	if mc.Shards < 0 {
		return nil, fmt.Errorf("core: shard count must be >= 0, got %d", mc.Shards)
	}
	if mc.Shards >= 1 && mc.SharedULMT == nil {
		return nil, fmt.Errorf("core: Shards >= 1 needs SharedULMT")
	}
	if mc.Shards == 0 && mc.SharedULMT != nil {
		return nil, fmt.Errorf("core: SharedULMT set but Shards == 0; use CoreApp.ULMT for private threads")
	}

	base := mc.Base
	eng := sim.NewEngine()
	d, err := dram.New(base.DRAM)
	if err != nil {
		return nil, err
	}
	fsb := bus.New(eng, base.Bus)
	// One page mapper for the whole machine: cores share physical
	// memory, and disjoint virtual regions (offsetOps) keep their
	// pages from aliasing.
	mapper := mem.NewPageMapper(base.LinearPages, base.Seed)

	ms := &MultiSystem{
		mc:       mc,
		eng:      eng,
		fsb:      fsb,
		ram:      d,
		mapper:   mapper,
		windowed: len(mc.Apps) >= 2,
		finishAt: make([]sim.Cycle, len(mc.Apps)),
	}
	for i, app := range mc.Apps {
		cfg := base
		if mc.Shards == 0 {
			cfg.ULMT = app.ULMT
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		s, err := newSystemOn(cfg, eng, fsb, d, mapper)
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		s.coreID = i
		ms.cores = append(ms.cores, s)
	}
	if mc.Shards >= 1 {
		ss, err := newShardSet(eng, base, mc.SharedULMT, mc.Shards)
		if err != nil {
			return nil, err
		}
		ss.cores = ms.cores
		ss.pendingDeliver = make([]bool, len(ms.cores))
		ss.attrib = make([]stats.ShardAttrib, len(ms.cores))
		ms.shards = ss
		for _, s := range ms.cores {
			s.shards = ss
		}
	}
	if base.Faults.Enabled() {
		// Bandwidth hooks are machine-wide singletons (one bus, one
		// DRAM); wire them through core 0, whose Results.Faults then
		// carries the machine's bandwidth injections.
		ms.cores[0].wireFaultHooks()
	}
	return ms, nil
}

// Engine exposes the shared simulation clock.
func (ms *MultiSystem) Engine() *sim.Engine { return ms.eng }

// coreOps returns core i's op stream relocated into its private
// virtual region. Region stride 1<<40 keeps N cores' heaps disjoint
// while staying far below the correlation-table base (1<<44).
func (ms *MultiSystem) coreOps(i int) []workload.Op {
	return offsetOps(ms.mc.Apps[i].Ops, mem.Addr(uint64(i))<<40)
}

// newCoreProc builds core i's processor and, in windowed mode, puts
// it in armed-register scheduling with the read-only window probe
// before any event is scheduled.
func (ms *MultiSystem) newCoreProc(i int, ops []workload.Op) *cpu.Processor {
	s := ms.cores[i]
	proc, err := cpu.New(ms.eng, s.cfg.CPU, s, ops)
	if err != nil {
		// NewMultiSystem validated every core config.
		panic(err)
	}
	if ms.windowed {
		proc.SetWindowed(s.windowProbeL1)
	}
	s.proc = proc
	return proc
}

// buildDomains assembles the DomainEngine over the cores, in core-id
// order (the canonical domain order).
func (ms *MultiSystem) buildDomains() {
	ms.de = sim.NewDomainEngine(ms.eng)
	for _, s := range ms.cores {
		ms.de.Add(coreDomain{s.proc})
	}
}

// start attaches every core's processor and schedules the initial
// events.
func (ms *MultiSystem) start() {
	for i := range ms.cores {
		s := ms.cores[i]
		ops := ms.coreOps(i)
		proc := ms.newCoreProc(i, ops)
		i := i
		proc.Start(func() { ms.finishAt[i] = ms.eng.Now() })
		s.scheduleFaultRemaps(ops)
	}
	if ms.windowed {
		ms.buildDomains()
	}
}

// Run executes every core's stream to completion and returns the
// measurements.
func (ms *MultiSystem) Run() MulticoreResults {
	ms.start()
	if ms.windowed {
		ms.de.Run()
	} else {
		ms.eng.Run()
	}
	return ms.collect()
}

func (ms *MultiSystem) collect() MulticoreResults {
	res := MulticoreResults{
		TotalCycles:  ms.eng.Now(),
		Bus:          ms.fsb.Stats(),
		BusTransfers: ms.fsb.Transfers(),
		EventsFired:  ms.eng.Fired(),
		FinishAt:     append([]sim.Cycle(nil), ms.finishAt...),
	}
	for i, s := range ms.cores {
		r := s.results(ms.mc.Apps[i].Name)
		res.Cores = append(res.Cores, r)
		res.ULMT.Add(r.ULMT)
	}
	if ms.shards != nil {
		res.ULMT = ms.shards.ulmtStats()
		res.ShardULMT = ms.shards.perShard()
		res.ShardFaults = ms.shards.inj
		res.ShardAttrib = append([]stats.ShardAttrib(nil), ms.shards.attrib...)
	}
	return res
}

// Quiesced reports whether every core and the shard set have fully
// drained.
func (ms *MultiSystem) Quiesced() bool {
	for _, s := range ms.cores {
		if !s.Quiesced() {
			return false
		}
	}
	return ms.shards == nil || ms.shards.idle()
}
