// Package memproc models the memory processor that hosts the ULMT: a
// simple 2-issue 800 MHz general-purpose core with a 32 KB 2-way L1,
// integrated either in the North Bridge (memory controller) chip or
// inside the DRAM chip (paper Table 3, Fig 3).
//
// The model is a cost accountant, not a pipeline: the ULMT algorithm
// actually executes in Go against the software correlation table, and
// every instruction estimate and simulated table access it reports is
// converted into time here. Instruction time accrues at the core's
// peak rate (2 instructions per 800 MHz cycle = 1 instruction per
// 1.6 GHz main cycle); memory time comes from the memory processor's
// own L1 simulation plus the shared DRAM bank model, using the
// placement-specific round-trip latencies of Table 3:
//
//	North Bridge: 100 cycles (row miss), 65 (row hit)
//	In DRAM:       56 cycles (row miss), 21 (row hit)
//
// Because table accesses go through a real cache over the real shared
// banks, the Fig 10 response/occupancy numbers and the Fig 8 location
// sensitivity are measurements, not inputs.
package memproc

import (
	"ulmt/internal/cache"
	"ulmt/internal/dram"
	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
)

// Location places the memory processor (Fig 1-(a)).
type Location int

const (
	// InDRAM integrates the core in the DRAM chip: lowest memory
	// latency, highest internal bandwidth.
	InDRAM Location = iota
	// InNorthBridge puts the core in the memory controller chip:
	// no DRAM modification, but twice the memory latency and an
	// extra 25-cycle hop for prefetch requests to reach the DRAM.
	InNorthBridge
)

// String names the location for reports.
func (l Location) String() string {
	if l == InNorthBridge {
		return "NorthBridge"
	}
	return "DRAM"
}

// Config sets the memory processor's timing.
type Config struct {
	Location Location
	// Cache is the memory processor's L1 (Table 3: 32 KB, 2-way,
	// 32 B lines).
	Cache cache.Config
	// CacheHitCycles is the charge for a table access that hits the
	// L1, in 1.6 GHz cycles. The 4-cycle round trip of Table 3
	// overlaps with execution in a pipelined core; the default
	// charges half.
	CacheHitCycles sim.Cycle
	// RowHitRT / RowMissRT are the round-trip latencies of an L1
	// miss to the DRAM, per Table 3 for the chosen location.
	RowHitRT  sim.Cycle
	RowMissRT sim.Cycle
	// PrefetchToDRAM is the extra delay a prefetch request suffers
	// before reaching the DRAM (25 cycles from the North Bridge,
	// none when the core is in the DRAM chip).
	PrefetchToDRAM sim.Cycle
	// BurstCycles is the charge for a miss that lands in the same
	// DRAM row as the immediately preceding miss of the same
	// session. The in-DRAM data bus is 32 bytes wide at 800 MHz
	// (Table 3), so the second line of a correlation-table row
	// streams out almost for free; from the North Bridge the channel
	// is narrower and the charge higher.
	BurstCycles sim.Cycle
}

// DefaultCacheConfig is the Table 3 memory-processor L1.
func DefaultCacheConfig() cache.Config {
	return cache.Config{SizeBytes: 32 << 10, Assoc: 2, Line: mem.LineSize32, MSHRs: 4, WBQDepth: 4}
}

// DefaultConfig returns the configuration for a location, using the
// Table 3 latencies.
func DefaultConfig(loc Location) Config {
	c := Config{
		Location:       loc,
		Cache:          DefaultCacheConfig(),
		CacheHitCycles: 2,
	}
	if loc == InNorthBridge {
		c.RowHitRT, c.RowMissRT, c.PrefetchToDRAM = 65, 100, 25
		c.BurstCycles = 16
	} else {
		c.RowHitRT, c.RowMissRT, c.PrefetchToDRAM = 21, 56, 0
		c.BurstCycles = 4
	}
	return c
}

// MemProc is the memory processor. It shares the DRAM bank model
// with the rest of the machine so ULMT table misses contend with
// application traffic.
type MemProc struct {
	cfg   Config
	cache *cache.Cache
	dram  *dram.DRAM
	st    stats.ULMTStats
	pool  sim.Pool[Session]
}

// New builds a memory processor over the shared DRAM, or reports why
// its cache configuration is invalid.
func New(cfg Config, d *dram.DRAM) (*MemProc, error) {
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	return &MemProc{cfg: cfg, cache: c, dram: d}, nil
}

// Config returns the timing configuration.
func (mp *MemProc) Config() Config { return mp.cfg }

// Stats returns a copy of the accumulated Fig 10 counters.
func (mp *MemProc) Stats() stats.ULMTStats { return mp.st }

// DropObservation counts a queue-2 overflow: the ULMT never saw the
// miss.
func (mp *MemProc) DropObservation() { mp.st.MissesDropped++ }

// Session accounts for the processing of one observed miss. It
// implements table.Sink, so a ULMT algorithm can be run directly
// against it. Time accrues in two pools — computation and memory
// stall — whose sum is the session's elapsed time.
type Session struct {
	mp    *MemProc
	start sim.Cycle
	busy  sim.Cycle
	memt  sim.Cycle
	inst  uint64

	respBusy sim.Cycle
	respMem  sim.Cycle
	marked   bool

	lastDRAMLine mem.Line
	haveDRAMLine bool
}

// Begin opens an accounting session at simulation time now.
func (mp *MemProc) Begin(now sim.Cycle) *Session {
	s := mp.pool.Get()
	*s = Session{mp: mp, start: now}
	return s
}

// Instr implements table.Sink: n instructions at the core's peak
// rate of one per main cycle.
func (s *Session) Instr(n int) {
	s.inst += uint64(n)
	s.busy += sim.Cycle(n)
}

// Touch implements table.Sink: a table read or write of size bytes.
// Every covered 32-byte line goes through the memory processor's L1;
// misses pay the placement round-trip plus any bank wait in the
// shared DRAM.
func (s *Session) Touch(addr mem.Addr, size int, write bool) {
	if size <= 0 {
		size = 1
	}
	first := mem.LineOf(addr, mem.LineSize32)
	last := mem.LineOf(addr+mem.Addr(size-1), mem.LineSize32)
	for l := first; l <= last; l++ {
		s.mp.st.MemAccesses++
		if s.mp.cache.Access(l, write).Hit {
			s.memt += s.mp.cfg.CacheHitCycles
			continue
		}
		s.mp.st.CacheMisses++
		now := s.start + s.busy + s.memt
		dl := mem.Rescale(l, mem.LineSize32, mem.LineSize64)
		if s.haveDRAMLine && (dl == s.lastDRAMLine || dl == s.lastDRAMLine+1) {
			// Streaming continuation of the previous fetch: the
			// wide internal (or already-open channel) burst.
			s.memt += s.mp.cfg.BurstCycles
			s.lastDRAMLine = dl
			s.mp.cache.Fill(l, write, false)
			continue
		}
		bankStart, rowHit := s.mp.dram.Access(now, dl)
		lat := s.mp.cfg.RowMissRT
		if rowHit {
			lat = s.mp.cfg.RowHitRT
		}
		s.memt += (bankStart - now) + lat
		s.lastDRAMLine = dl
		s.haveDRAMLine = true
		s.mp.cache.Fill(l, write, false)
	}
}

// MarkResponse snapshots the prefetching-step cost; everything after
// this call is learning-step time. Calling it twice keeps the first
// snapshot.
func (s *Session) MarkResponse() {
	if s.marked {
		return
	}
	s.marked = true
	s.respBusy, s.respMem = s.busy, s.memt
}

// Elapsed is the total session time so far.
func (s *Session) Elapsed() sim.Cycle { return s.busy + s.memt }

// Response is the prefetching-step time (after MarkResponse).
func (s *Session) Response() sim.Cycle { return s.respBusy + s.respMem }

// Finish folds the session into the running statistics and recycles
// the record: the session is dead after this call, so callers must
// read Elapsed/Response before finishing, and must not retain the
// pointer.
func (mp *MemProc) Finish(s *Session) {
	if !s.marked {
		s.MarkResponse()
	}
	mp.st.MissesProcessed++
	mp.st.ResponseBusy += s.respBusy
	mp.st.ResponseMem += s.respMem
	mp.st.OccupancyBusy += s.busy
	mp.st.OccupancyMem += s.memt
	mp.st.Instructions += s.inst
	mp.pool.Put(s)
}
