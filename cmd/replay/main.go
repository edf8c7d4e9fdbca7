// Command replay runs the timed simulator over a recorded op stream
// (written by `tracegen -ops`, or by an external tracer emitting the
// ULMTOPS1 format), under any of the named prefetching
// configurations. This is how a stream captured once gets evaluated
// against many designs without regenerating it.
//
// Usage:
//
//	tracegen -app Mcf -scale small -ops mcf.ops
//	replay -ops mcf.ops -config Repl -rows 65536
package main

import (
	"flag"
	"fmt"
	"os"

	"ulmt"
	"ulmt/internal/trace"
)

func main() {
	opsPath := flag.String("ops", "", "recorded op-stream file (required)")
	config := flag.String("config", "Repl", "NoPref, Conven4, Base, Chain, Repl, Seq4, Conven4+Repl, Active")
	rows := flag.Int("rows", 0, "correlation table rows (0 = size from the miss trace)")
	seed := flag.Uint64("seed", 1, "page-mapping seed")
	flag.Parse()

	if *opsPath == "" {
		fmt.Fprintln(os.Stderr, "replay: -ops is required")
		os.Exit(2)
	}
	f, err := os.Open(*opsPath)
	if err != nil {
		fatal(err)
	}
	ops, err := trace.ReadOps(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %d ops from %s under %s\n", len(ops), *opsPath, *config)

	mkBase := func() ulmt.Config {
		cfg := ulmt.DefaultConfig()
		cfg.Seed = *seed
		return cfg
	}
	if *rows == 0 {
		// Size from the miss stream of the machine the run uses: the
		// page-mapping seed decides which physical lines miss.
		bc := mkBase()
		*rows = ulmt.SizeTableRows(trace.L2Misses(ops, trace.Config{
			L1: bc.L1, L2: bc.L2, LinearPages: bc.LinearPages, Seed: bc.Seed}))
	}
	baseSys, err := ulmt.NewSystem(mkBase())
	if err != nil {
		fatal(err)
	}
	base := baseSys.Run("replay", ops)

	cfg := mkBase()
	switch *config {
	case "NoPref":
	case "Conven4":
		cfg.Conven = check(ulmt.NewConven(4, 6))
	case "Base":
		cfg.ULMT = ulmt.NewBaseAlgorithm(*rows)
	case "Chain":
		cfg.ULMT = check(ulmt.NewChainAlgorithm(*rows, 3))
	case "Repl":
		cfg.ULMT = ulmt.NewReplAlgorithm(*rows, 3)
	case "Seq4":
		cfg.ULMT = check(ulmt.NewSeqAlgorithm(4, 6))
	case "Conven4+Repl":
		cfg.Conven = check(ulmt.NewConven(4, 6))
		cfg.ULMT = ulmt.NewReplAlgorithm(*rows, 3)
	case "Active":
		cfg.Active = &ulmt.ActiveConfig{Slice: ulmt.BuildSlice(ops, cfg)}
	default:
		fmt.Fprintf(os.Stderr, "replay: unknown config %q\n", *config)
		os.Exit(2)
	}
	sys, err := ulmt.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	r := sys.Run("replay", ops)

	b, u, m := r.Exec.Normalized(base.Cycles)
	fmt.Printf("NoPref:  %d cycles (%d L2 misses)\n", base.Cycles, base.DemandMissesToMemory)
	fmt.Printf("%s: %d cycles — speedup %.3f\n", *config, r.Cycles, r.Speedup(base))
	fmt.Printf("breakdown: busy=%.2f uptoL2=%.2f beyondL2=%.2f (of NoPref time)\n", b, u, m)
	if r.PushesToL2 > 0 {
		fmt.Printf("prefetching: %d pushes, coverage %.2f, ULMT response %.0f / occupancy %.0f cycles\n",
			r.PushesToL2, r.Coverage(base), r.ULMT.AvgResponse(), r.ULMT.AvgOccupancy())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// check exits with the constructor's message instead of a stack trace.
func check[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}
