// Package core assembles the whole simulated machine of paper Fig 3:
// main processor with L1/L2, front-side bus, memory controller with
// queues 1-3 and the Filter module, shared DRAM, and the memory
// processor running the ULMT — and runs one application over it.
package core

import (
	"fmt"

	"ulmt/internal/bus"
	"ulmt/internal/cache"
	"ulmt/internal/cpu"
	"ulmt/internal/dram"
	"ulmt/internal/fault"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
)

// Config selects every parameter of a run. DefaultConfig reproduces
// paper Table 3; experiments override the prefetching fields.
type Config struct {
	CPU  cpu.Config
	L1   cache.Config
	L2   cache.Config
	Bus  bus.Config
	DRAM dram.Config

	// L1HitRT and L2HitRT are demand round-trip latencies (Table 3:
	// 3 and 19 cycles).
	L1HitRT sim.Cycle
	L2HitRT sim.Cycle

	// The memory round trip of Table 3 (208 row hit / 243 row miss
	// from the processor) decomposes as: L2 lookup (L2HitRT) + bus
	// request + controller overhead + issue port + DRAM access +
	// line transfer back. With the defaults that is
	// 19 + 4 + 5 + 2 + {146,181} + 32 = {208, 243}.
	CtrlOverhead   sim.Cycle
	IssuePortBusy  sim.Cycle
	DRAMRowHitLat  sim.Cycle
	DRAMRowMissLat sim.Cycle

	// QueueDepth sizes queues 1-3 (Table 3: 16); FilterSize the
	// Filter module (32 entries, FIFO; 0 disables).
	QueueDepth int
	FilterSize int

	// MemProc places and times the memory processor; used only when a
	// memory thread runs (ULMT or Active, or a multicore machine's
	// shards). Every push pays its PrefetchToDRAM.
	MemProc memproc.Config

	// ULMT is the memory-side prefetching algorithm, or nil for
	// none. The instance must be fresh for each run (tables are
	// stateful).
	ULMT prefetch.Algorithm

	// Active, if non-nil, runs the memory thread as an *active*
	// prefetcher executing an abridged program (paper Fig 1-(c))
	// instead of a passive correlation algorithm.
	Active *ActiveConfig

	// Verbose lets the ULMT observe processor-side prefetch requests
	// in queue 2 (paper §3.2). Non-verbose (false) is the default.
	Verbose bool

	// Conven is the processor-side hardware prefetcher, or nil.
	Conven *prefetch.Conven

	// LinearPages disables the scattered first-touch page mapping.
	LinearPages bool
	// Seed scrambles the page mapper.
	Seed uint64

	// Ablation switches (DESIGN.md "Key design decisions").
	//
	// LearnFirst runs the learning step before the prefetching step,
	// quantifying the cost of the naive ordering.
	LearnFirst bool
	// DisableCrossMatch turns off the queue 2/3 cross-matching.
	DisableCrossMatch bool
	// DropPushes discards prefetched lines at the L2 boundary,
	// approximating a pull design that only buffers in memory.
	DropPushes bool

	// Faults, when non-nil, injects the plan's deterministic fault
	// schedule into the run (DESIGN.md "Fault model"). Nil — the
	// default — leaves every fault path compiled out of the event
	// flow: results are bit-identical to a plan-free build.
	Faults *fault.Plan
}

// Validate reports the first configuration error, or nil. NewSystem
// calls it; running it directly gives callers the error before any
// construction happens.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("core: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	if c.FilterSize < 0 {
		return fmt.Errorf("core: FilterSize must be >= 0, got %d", c.FilterSize)
	}
	if c.ULMT != nil || c.Active != nil {
		if err := c.MemProc.Cache.Validate(); err != nil {
			return fmt.Errorf("memproc cache: %w", err)
		}
	}
	return c.Faults.Config().Validate()
}

// DefaultConfig returns the paper's Table 3 machine with no
// prefetching.
func DefaultConfig() Config {
	return Config{
		CPU: cpu.DefaultConfig(),
		L1: cache.Config{
			SizeBytes: 16 << 10, Assoc: 2, Line: 32, MSHRs: 16, WBQDepth: 8,
		},
		L2: cache.Config{
			SizeBytes: 512 << 10, Assoc: 4, Line: 64, MSHRs: 16, WBQDepth: 16,
		},
		Bus:            bus.DefaultConfig(),
		DRAM:           dram.DefaultConfig(),
		L1HitRT:        3,
		L2HitRT:        19,
		CtrlOverhead:   5,
		IssuePortBusy:  2,
		DRAMRowHitLat:  146,
		DRAMRowMissLat: 181,
		QueueDepth:     16,
		FilterSize:     32,
		MemProc:        memproc.DefaultConfig(memproc.InDRAM),
	}
}
