package ulmt_test

import (
	"testing"

	"ulmt"
)

func TestPublicQuickstartFlow(t *testing.T) {
	app, err := ulmt.WorkloadByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	ops := app.Generate(ulmt.ScaleTiny)
	base := ulmt.MustSystem(ulmt.DefaultConfig()).Run("Mcf", ops)

	rows := ulmt.SizeTableRows(ulmt.MissTrace(ops))
	if rows <= 0 {
		t.Fatalf("rows = %d", rows)
	}
	cfg := ulmt.DefaultConfig()
	cfg.ULMT = ulmt.NewReplAlgorithm(rows, 3)
	r := ulmt.MustSystem(cfg).Run("Mcf", ops)
	if sp := r.Speedup(base); sp < 1.0 {
		t.Errorf("Repl slowed Mcf: %.3f", sp)
	}
	if r.Coverage(base) <= 0 {
		t.Error("no coverage")
	}
}

// TestMissTraceMatchesTimedRun: MissTrace must page an op stream as
// the DefaultConfig machine does, so a table sized from it is sized
// for the physical lines the timed run misses on. A memory thread
// that only records what it observes sees every line the run fetches
// from memory, and those are exactly the trace's distinct lines.
func TestMissTraceMatchesTimedRun(t *testing.T) {
	app, err := ulmt.WorkloadByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	ops := app.Generate(ulmt.ScaleTiny)
	observed := map[ulmt.Line]bool{}
	cfg := ulmt.DefaultConfig()
	cfg.ULMT = &ulmt.AlgorithmFunc{
		AlgName: "Observe",
		OnLearn: func(m ulmt.Line, _ ulmt.Sink) { observed[m] = true },
	}
	if r := ulmt.MustSystem(cfg).Run("Mcf", ops); r.Q2Drops != 0 {
		t.Fatalf("memory thread lost %d observations", r.Q2Drops)
	}
	traced := map[ulmt.Line]bool{}
	for _, l := range ulmt.MissTrace(ops) {
		traced[l] = true
	}
	missing := 0
	for l := range traced {
		if !observed[l] {
			missing++
		}
	}
	if missing != 0 || len(traced) != len(observed) {
		t.Fatalf("trace has %d distinct lines, %d of them never missed on; the timed run missed on %d",
			len(traced), missing, len(observed))
	}
}

func TestPublicWorkloadRegistry(t *testing.T) {
	if len(ulmt.Workloads()) != 9 {
		t.Fatalf("workloads = %d", len(ulmt.Workloads()))
	}
	if _, err := ulmt.WorkloadByName("DOOM"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPublicAlgorithmConstructors(t *testing.T) {
	algs := []ulmt.Algorithm{
		ulmt.NewBaseAlgorithm(1 << 10),
		mustChainAlg(1<<10, 3),
		ulmt.NewReplAlgorithm(1<<10, 3),
		mustSeqAlg(4, 6),
		ulmt.Combine(mustSeqAlg(1, 6), ulmt.NewReplAlgorithm(1<<10, 3)),
	}
	wantNames := []string{"Base", "Chain", "Repl", "Seq4", "Seq1+Repl"}
	for i, a := range algs {
		if a.Name() != wantNames[i] {
			t.Errorf("alg %d name = %q, want %q", i, a.Name(), wantNames[i])
		}
	}
	if mustConven(4, 6).Name() != "Conven4" {
		t.Error("Conven name")
	}
}

func TestPublicPredictors(t *testing.T) {
	// A repeating pointer pattern: Repl predicts, Seq does not.
	var trace []ulmt.Line
	pattern := []ulmt.Line{10, 900, 33, 1200, 77}
	for i := 0; i < 40; i++ {
		trace = append(trace, pattern...)
	}
	repl := ulmt.PredictionAccuracy(ulmt.NewReplPredictor(1<<10, 3), trace)
	seq := ulmt.PredictionAccuracy(ulmt.NewSeqPredictor(4, 3), trace)
	if repl[0] < 0.9 {
		t.Errorf("Repl level-1 = %.3f", repl[0])
	}
	if seq[0] > 0.05 {
		t.Errorf("Seq level-1 = %.3f on a pointer pattern", seq[0])
	}
	base := ulmt.PredictionAccuracy(ulmt.NewBasePredictor(1<<10), trace)
	chain := ulmt.PredictionAccuracy(ulmt.NewChainPredictor(1<<10, 3), trace)
	if base[0] < 0.9 || chain[0] < 0.9 {
		t.Errorf("base/chain level-1 = %.3f/%.3f", base[0], chain[0])
	}
}

func TestPublicCustomAlgorithm(t *testing.T) {
	// A next-line prefetcher written against the public API.
	next := &ulmt.AlgorithmFunc{
		AlgName: "NextLine",
		OnPrefetch: func(m ulmt.Line, s ulmt.Sink, emit func(ulmt.Line)) {
			s.Instr(2)
			emit(m + 1)
		},
	}
	app, _ := ulmt.WorkloadByName("CG")
	ops := app.Generate(ulmt.ScaleTiny)
	cfg := ulmt.DefaultConfig()
	cfg.ULMT = next
	r := ulmt.MustSystem(cfg).Run("CG", ops)
	if r.PushesToL2 == 0 {
		t.Fatal("custom algorithm pushed nothing")
	}
	if r.ULMT.MissesProcessed == 0 {
		t.Fatal("custom algorithm never ran")
	}
}

func TestPublicBuilderWorkload(t *testing.T) {
	b := ulmt.NewBuilder()
	base := b.Alloc(1 << 20)
	for i := 0; i < 4096; i++ {
		b.Load(base + ulmt.Addr(i*64))
		b.Work(3)
	}
	ops := b.Ops()
	r := ulmt.MustSystem(ulmt.DefaultConfig()).Run("custom", ops)
	if r.OpsRetired != uint64(len(ops)) {
		t.Errorf("retired %d of %d", r.OpsRetired, len(ops))
	}
	if r.DemandMissesToMemory == 0 {
		t.Error("1 MB sweep produced no misses")
	}
}

func TestNorthBridgeConfig(t *testing.T) {
	cfg := ulmt.NorthBridgeConfig()
	if cfg.MemProc.Location != ulmt.MemProcInNorthBridge {
		t.Error("NorthBridgeConfig did not set location")
	}
	if ulmt.DefaultConfig().MemProc.Location != ulmt.MemProcInDRAM {
		t.Error("DefaultConfig must place the memproc in DRAM")
	}
}
