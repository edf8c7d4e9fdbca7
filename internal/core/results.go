package core

import (
	"ulmt/internal/cache"
	"ulmt/internal/dram"
	"ulmt/internal/fault"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
)

// Results carries everything the paper's tables and figures need
// from one run.
type Results struct {
	App   string
	Label string // configuration label (NoPref, Repl, ...)

	// Cycles is the run length in 1.6 GHz cycles.
	Cycles sim.Cycle
	// Exec is the Busy / UpToL2 / BeyondL2 attribution (Figs 7, 8).
	Exec stats.ExecBreakdown

	// DemandMissesToMemory counts demand L2 misses that reached the
	// memory controller (the "original misses" population when no
	// prefetching runs).
	DemandMissesToMemory uint64
	// PrefetchReqsToMemory counts processor-side prefetch requests
	// that reached memory (lumped into NonPrefMisses in Fig 9).
	PrefetchReqsToMemory uint64
	// PushesToL2 counts ULMT-prefetched lines that arrived at the L2.
	PushesToL2 uint64

	// Outcomes is the Fig 9 breakdown.
	Outcomes stats.PrefetchOutcomes

	// MissDistance is the Fig 6 histogram of cycles between
	// consecutive demand misses arriving at memory.
	MissDistance *stats.Histogram

	// ULMT carries the Fig 10 response/occupancy/IPC inputs.
	ULMT stats.ULMTStats

	// Bus carries Fig 11 occupancy; BusUtilization = busy/total.
	Bus              stats.BusStats
	BusUtilization   float64
	PrefetchBusShare float64

	DRAM dram.Stats

	L1 cache.Stats
	L2 cache.Stats

	// FilterDropped counts prefetch requests suppressed by the
	// Filter module; QueueDrops the queue-2 overflow observations
	// the ULMT lost; Q3Drops prefetches lost to a full queue 3.
	FilterDropped uint64
	Q2Drops       uint64
	Q3Drops       uint64
	// CrossMatchedDemand counts queue-3 prefetches cancelled by a
	// matching demand miss; CrossMatchedPush counts emitted
	// prefetches cancelled against queues 1/2.
	CrossMatchedDemand uint64
	CrossMatchedPush   uint64

	// Faults counts the fault events the configured plan injected
	// into this run (all zero without a plan).
	Faults fault.Injected
	// DegradedSheds counts observations the occupancy watchdog shed
	// from the ULMT backlog; DegradedDrops observations it refused
	// during backoff windows. Both are zero unless
	// Config.BacklogHighWater arms the watchdog.
	DegradedSheds uint64
	DegradedDrops uint64

	// ConvenIssued counts processor-side prefetch lines requested.
	ConvenIssued uint64

	// CacheFP folds the final L1 and L2 contents into one hash
	// (System.CacheFingerprint), so equivalence tests can compare
	// terminal cache state, not just counters.
	CacheFP uint64

	// OpsRetired is the number of workload ops executed.
	OpsRetired uint64
	// CPUIssueCycles and CPUComputeCycles break explicit activity
	// out of the Busy residual (diagnostics for the CPU model).
	CPUIssueCycles   uint64
	CPUComputeCycles uint64

	// EventsFired is the number of engine events this run executed —
	// a host-side measure of event churn, not of simulated behavior.
	// A change to how work is scheduled (a multi-core stretch retires
	// issue steps without events, say) legitimately moves it, so it is
	// excluded from every golden digest and equivalence comparison.
	EventsFired uint64
}

// Speedup returns base.Cycles / r.Cycles, the paper's speedup metric
// (execution time ratio against NoPref).
func (r Results) Speedup(base Results) float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Coverage returns the Fig 9 coverage against the baseline's
// original miss count.
func (r Results) Coverage(base Results) float64 {
	return r.Outcomes.Coverage(base.DemandMissesToMemory)
}
