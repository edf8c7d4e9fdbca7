// Package ulmt is a library-level reproduction of "Using a
// User-Level Memory Thread for Correlation Prefetching" (Solihin,
// Lee, Torrellas; ISCA 2002).
//
// The paper runs a user-level thread (the ULMT) on a simple
// general-purpose core placed in main memory — in the memory
// controller (North Bridge) chip or inside a DRAM chip. The thread
// observes the main processor's L2 cache misses, looks up a software
// correlation table stored in ordinary main memory, and pushes
// predicted future miss lines into the processor's L2. The package
// provides:
//
//   - a cycle-level model of the whole machine (out-of-order-window
//     CPU, L1/L2 with MSHRs and push-acceptance rules, split
//     transaction bus, banked DRAM, controller queues with
//     cross-matching and the Filter module, and the memory processor
//     with its own cache);
//   - the paper's prefetching algorithms: Base, Chain, Replicated,
//     software sequential (Seq1/Seq4), the conventional
//     processor-side hardware prefetcher (Conven4), and combinations;
//   - customization: any user-supplied Algorithm can run as the ULMT
//     (§3.3.3 of the paper), with costs charged through the Sink it
//     is handed;
//   - nine workload kernels reproducing the memory behavior of the
//     paper's applications (NAS CG/FT, Equake, Gap, Mcf, Olden MST,
//     Parser, SparseBench GMRES, Barnes treecode);
//   - prediction-accuracy tooling and a full experiment harness that
//     regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	cfg := ulmt.DefaultConfig()
//	cfg.ULMT = ulmt.NewReplAlgorithm(1<<16, 3)
//	app, _ := ulmt.WorkloadByName("Mcf")
//	sys, err := ulmt.NewSystem(cfg)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res := sys.Run("Mcf", app.Generate(ulmt.ScaleSmall))
//	base := ulmt.MustSystem(ulmt.DefaultConfig()).Run("Mcf", app.Generate(ulmt.ScaleSmall))
//	fmt.Printf("speedup %.2f\n", res.Speedup(base))
//
// See examples/ for runnable programs and cmd/ulmtsim for the full
// evaluation driver.
package ulmt

import (
	"ulmt/internal/core"
	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/table"
	"ulmt/internal/trace"
	"ulmt/internal/workload"
)

// Core machine types. These are aliases so that values returned by
// the public constructors interoperate with the experiment harness.
type (
	// Config selects every parameter of a simulated machine; see
	// DefaultConfig.
	Config = core.Config
	// System is one assembled machine.
	System = core.System
	// Results carries the measurements of one run.
	Results = core.Results

	// Addr is a simulated byte address; Line a cache-line address.
	Addr = mem.Addr
	Line = mem.Line

	// Op is one element of a workload's dynamic reference stream.
	Op = workload.Op
	// Workload generates op streams; Scale sizes them.
	Workload = workload.Workload
	Scale    = workload.Scale
	// Builder helps user code synthesize custom workloads.
	Builder = workload.Builder

	// Algorithm is a ULMT prefetching algorithm: the customization
	// surface of the paper. Prefetch runs first (its duration is the
	// response time), then Learn (completing the occupancy time).
	Algorithm = prefetch.Algorithm
	// AlgorithmFunc adapts two closures to Algorithm.
	AlgorithmFunc = prefetch.Func
	// Sink receives the cost (instructions, table-memory touches) of
	// everything an Algorithm does.
	Sink = table.Sink
	// Conven is the processor-side hardware stream prefetcher.
	Conven = prefetch.Conven
	// Predictor measures prediction accuracy without prefetching.
	Predictor = prefetch.Predictor
)

// Workload scales.
const (
	ScaleTiny   = workload.ScaleTiny
	ScaleSmall  = workload.ScaleSmall
	ScaleMedium = workload.ScaleMedium
	ScaleLarge  = workload.ScaleLarge
)

// MemProcInDRAM and MemProcInNorthBridge are the two placements of
// the memory processor (paper Fig 1).
const (
	MemProcInDRAM        = memproc.InDRAM
	MemProcInNorthBridge = memproc.InNorthBridge
)

// TableBase is the simulated physical address at which the public
// constructors place correlation tables: far above application
// frames.
const TableBase Addr = 1 << 44

// DefaultConfig returns the paper's Table 3 machine with no
// prefetching: 6-issue 1.6 GHz CPU, 16 KB L1, 512 KB L2, 3.2 GB/s
// split-transaction bus, dual-channel DRAM, and the memory processor
// (when enabled) in the DRAM chip.
func DefaultConfig() Config { return core.DefaultConfig() }

// NorthBridgeConfig returns DefaultConfig with the memory processor
// placed in the memory controller chip instead (Fig 8's ReplMC).
func NorthBridgeConfig() Config {
	cfg := core.DefaultConfig()
	cfg.MemProc = memproc.DefaultConfig(memproc.InNorthBridge)
	return cfg
}

// NewSystem assembles a machine, or reports the first configuration
// error. Each System runs one op stream; build a fresh one (and fresh
// Algorithm instances) per run.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// MustSystem is NewSystem for configurations known to be valid (e.g.
// DefaultConfig variants); it panics on error.
func MustSystem(cfg Config) *System {
	s, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Workloads returns the nine applications in the paper's Table 2
// order.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one of the nine applications (CG, Equake,
// FT, Gap, Mcf, MST, Parser, Sparse, Tree).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// NewBuilder returns an op-stream builder for custom workloads.
func NewBuilder() *Builder { return workload.NewBuilder() }

// NewBaseAlgorithm returns the conventional pair-based correlation
// algorithm over a fresh table with the given row count (the paper's
// Base: NumSucc=4, Assoc=4).
func NewBaseAlgorithm(numRows int) Algorithm {
	return prefetch.NewBase(table.NewBase(table.BaseParams(numRows), TableBase))
}

// NewChainAlgorithm returns the Chain algorithm (NumSucc=2, Assoc=2)
// prefetching numLevels levels of successors, or an error for a
// nonsensical level count.
func NewChainAlgorithm(numRows, numLevels int) (Algorithm, error) {
	p := table.ChainParams(numRows)
	p.NumLevels = numLevels
	return prefetch.NewChain(table.NewBase(p, TableBase), numLevels)
}

// NewReplAlgorithm returns the paper's Replicated algorithm
// (NumSucc=2, Assoc=2) with numLevels levels of true-MRU successors
// per row.
func NewReplAlgorithm(numRows, numLevels int) Algorithm {
	p := table.ReplParams(numRows)
	p.NumLevels = numLevels
	return prefetch.NewRepl(table.NewRepl(p, TableBase))
}

// NewSeqAlgorithm returns software sequential prefetching as a ULMT
// algorithm: numSeq concurrent ±1 streams, each prefetching numPref
// lines ahead (the paper's Seq1 and Seq4). Both counts must be >= 1.
func NewSeqAlgorithm(numSeq, numPref int) (Algorithm, error) {
	return prefetch.NewSeq(numSeq, numPref, TableBase-4096)
}

// Combine chains ULMT algorithms: first's steps run before second's.
// The paper's CG customization is Combine(Seq1, Repl) in Verbose
// mode.
func Combine(first, second Algorithm) Algorithm {
	return &prefetch.Combined{First: first, Second: second}
}

// NewAdaptiveAlgorithm returns a ULMT that re-decides between a
// sequential and a pair-based algorithm as the application executes,
// the on-the-fly customization the paper sketches in §3.3.3. It runs
// seq on stream-dominated windows, pair on irregular windows, and
// both in between.
func NewAdaptiveAlgorithm(seq, pair Algorithm) Algorithm {
	return prefetch.NewAdaptive(seq, pair)
}

// NewConven returns the conventional processor-side hardware
// prefetcher (the paper's Conven4 when called with 4, 6), or an error
// for nonsensical stream/depth counts. Assign it to Config.Conven.
func NewConven(numSeq, numPref int) (*Conven, error) {
	return prefetch.NewConven(numSeq, numPref)
}

// Active prefetching (paper Fig 1-(c)): the memory thread executes
// an abridged address-generating program ahead of the processor
// instead of reacting to observed misses.
type (
	// ActiveConfig configures the active thread; assign to
	// Config.Active.
	ActiveConfig = core.ActiveConfig
	// Slice is the abridged program the active thread executes.
	Slice = prefetch.Slice
	// SliceStep is one address of the abridged program.
	SliceStep = prefetch.SliceStep
)

// BuildSlice derives an abridged program from an op stream under the
// same paging the run will use (cfg.LinearPages, cfg.Seed).
func BuildSlice(ops []Op, cfg Config) *Slice {
	return core.BuildSlice(ops, cfg.LinearPages, cfg.Seed, cfg.L2.Line)
}

// Fault injection (DESIGN.md "Fault model and degradation
// guarantees"): a deterministic, seed-driven schedule of dropped
// observations and pushes, ULMT preemptions, bus brownouts, DRAM
// contention spikes and OS page remaps. Assign a plan to
// Config.Faults; faults degrade timing and prefetch coverage but
// never demand-miss semantics.
type (
	// FaultConfig declares fault rates and windows; the zero value
	// injects nothing.
	FaultConfig = fault.Config
	// FaultPlan is a compiled, immutable fault schedule; nil = none.
	FaultPlan = fault.Plan
	// FaultsInjected counts the faults a run actually injected
	// (Results.Faults).
	FaultsInjected = fault.Injected
)

// NewFaultPlan validates a fault configuration and compiles a plan.
func NewFaultPlan(c FaultConfig) (*FaultPlan, error) { return fault.NewPlan(c) }

// LightFaults and HeavyFaults are the built-in fault presets.
func LightFaults(seed uint64) *FaultPlan { return fault.Light(seed) }

// HeavyFaults exercises every fault class aggressively.
func HeavyFaults(seed uint64) *FaultPlan { return fault.Heavy(seed) }

// ParseFaultSpec builds a plan from a -faults style spec string:
// "off", "light", "heavy", or comma-separated key=value pairs (see
// internal/fault.ParseSpec for the keys).
func ParseFaultSpec(spec string, seed uint64) (*FaultPlan, error) {
	return fault.ParseSpec(spec, seed)
}

// Multiprogramming (paper §3.4): several applications time-share the
// machine; each has its own ULMT and table, scheduled as a group with
// its application — or one shared, interfering table for comparison.
type (
	// MultiConfig describes a multiprogrammed run.
	MultiConfig = core.MultiConfig
	// MultiApp is one co-scheduled application.
	MultiApp = core.MultiApp
	// MultiResults reports per-application finish times.
	MultiResults = core.MultiResults
)

// RunMulti executes applications round-robin on one machine.
func RunMulti(mc MultiConfig) (MultiResults, error) { return core.RunMulti(mc) }

// MissTrace extracts the L2 miss line trace an op stream produces on
// the default hierarchy, paged as DefaultConfig pages it, for
// prediction studies and table sizing.
func MissTrace(ops []Op) []Line {
	cfg := core.DefaultConfig()
	return trace.L2Misses(ops, trace.Config{L1: cfg.L1, L2: cfg.L2, LinearPages: cfg.LinearPages, Seed: cfg.Seed})
}

// SizeTableRows applies the paper's Table 2 rule to a miss trace:
// the smallest power-of-two row count at which fewer than 5% of
// insertions replace a live row.
func SizeTableRows(missTrace []Line) int {
	n, _ := table.SizeRows(missTrace, 2, 0.05, 1<<10, 1<<22)
	return n
}

// NewReplPredictor, NewBasePredictor, NewChainPredictor and
// NewSeqPredictor build Fig 5-style predictors; feed them to
// PredictionAccuracy.
func NewReplPredictor(numRows, numLevels int) Predictor {
	p := table.Params{NumRows: numRows, Assoc: 4, NumSucc: 4, NumLevels: numLevels}
	return prefetch.NewReplPredictor(p)
}

// NewBasePredictor builds a level-1 predictor over the conventional
// table organization.
func NewBasePredictor(numRows int) Predictor {
	return prefetch.NewBasePredictor(table.Params{NumRows: numRows, Assoc: 4, NumSucc: 4, NumLevels: 1})
}

// NewChainPredictor builds a Chain predictor walking the MRU path.
func NewChainPredictor(numRows, numLevels int) Predictor {
	p := table.Params{NumRows: numRows, Assoc: 4, NumSucc: 4, NumLevels: numLevels}
	return prefetch.NewChainPredictor(p, numLevels)
}

// NewSeqPredictor builds a sequential-stream predictor.
func NewSeqPredictor(numSeq, levels int) Predictor {
	return prefetch.NewSeqPredictor(numSeq, levels)
}

// PredictionAccuracy runs a predictor over a miss trace and returns
// the fraction of misses correctly predicted at each successor level
// (one Fig 5 bar group).
func PredictionAccuracy(p Predictor, missTrace []Line) []float64 {
	return prefetch.Accuracy(p, missTrace)
}
