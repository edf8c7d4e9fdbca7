package core

import (
	"testing"

	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// seqOps builds a simple sequential sweep over n 32-byte L1 lines
// (so the stream is unit stride at the granularity the hardware
// prefetcher watches), repeated reps times.
func seqOps(n, reps int) []workload.Op {
	b := workload.NewBuilder()
	base := b.Alloc(n * 32)
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < n; i++ {
			b.Load(base + mem.Addr(i*32))
			b.Work(2)
		}
	}
	return b.Ops()
}

// chaseOps builds a repeating scattered pointer chase.
func chaseOps(n, reps int) []workload.Op {
	b := workload.NewBuilder()
	base := b.Alloc(n * 64)
	order := make([]int, n)
	s := uint64(7)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1
		j := int(s % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for rep := 0; rep < reps; rep++ {
		for _, i := range order {
			b.LoadDep(base + mem.Addr(i*64))
			b.Work(2)
		}
	}
	return b.Ops()
}

func replConfig(rows int) Config {
	cfg := DefaultConfig()
	cfg.LinearPages = true
	cfg.ULMT = prefetch.NewRepl(table.NewRepl(table.ReplParams(rows), TableBase))
	return cfg
}

func TestExecBreakdownSumsToRunLength(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinearPages = true
	r := mustSystem(cfg).Run("seq", seqOps(4096, 2))
	if r.Exec.Total() != r.Cycles {
		t.Errorf("breakdown %d != cycles %d", r.Exec.Total(), r.Cycles)
	}
}

func TestRunDeterminism(t *testing.T) {
	ops := chaseOps(4096, 3)
	a := mustSystem(replConfig(1<<13)).Run("x", ops)
	b := mustSystem(replConfig(1<<13)).Run("x", ops)
	if a.Cycles != b.Cycles || a.DemandMissesToMemory != b.DemandMissesToMemory ||
		a.PushesToL2 != b.PushesToL2 || a.Outcomes.Hits != b.Outcomes.Hits {
		t.Errorf("nondeterministic runs: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

func TestPointerChaseSpeedupFromULMT(t *testing.T) {
	// A repeating pointer chase far beyond the L2: the Replicated
	// ULMT must eliminate a substantial share of misses and speed
	// the run up.
	ops := chaseOps(16384, 3) // 1 MB working set
	cfg := DefaultConfig()
	cfg.LinearPages = true
	base := mustSystem(cfg).Run("chase", ops)
	r := mustSystem(replConfig(1<<15)).Run("chase", ops)
	if sp := r.Speedup(base); sp < 1.2 {
		t.Errorf("speedup = %.3f, want > 1.2 on an ideal correlation target", sp)
	}
	if cov := r.Coverage(base); cov < 0.3 {
		t.Errorf("coverage = %.3f", cov)
	}
	if r.Outcomes.Hits == 0 || r.PushesToL2 == 0 {
		t.Errorf("no prefetch activity: %+v", r.Outcomes)
	}
}

func TestDelayedHitsOccur(t *testing.T) {
	// With prefetching on a fast-missing chase, some pushes arrive
	// while the demand miss is in flight.
	ops := chaseOps(16384, 3)
	r := mustSystem(replConfig(1<<15)).Run("chase", ops)
	if r.Outcomes.DelayedHits == 0 {
		t.Error("expected some delayed hits (MSHR steals / controller matches)")
	}
}

func TestConvenHelpsDependentSequential(t *testing.T) {
	// A dependent sequential walk (a linked list laid out in order):
	// without prefetching every line costs a full memory round trip,
	// because the next address comes from the previous load. The
	// stream prefetcher turns those into L1 hits.
	b := workload.NewBuilder()
	n := 32768
	base := b.Alloc(n * 32)
	for i := 0; i < n; i++ {
		b.LoadDep(base + mem.Addr(i*32))
		b.Work(2)
	}
	ops := b.Ops()

	cfg := DefaultConfig()
	cfg.LinearPages = true
	baseRes := mustSystem(cfg).Run("seqdep", ops)
	cfg2 := DefaultConfig()
	cfg2.LinearPages = true
	cfg2.Conven = mustConven(4, 6)
	r := mustSystem(cfg2).Run("seqdep", ops)
	if sp := r.Speedup(baseRes); sp < 1.5 {
		t.Errorf("Conven4 speedup on a dependent stream = %.3f", sp)
	}
	if r.ConvenIssued == 0 {
		t.Error("Conven issued nothing")
	}
}

func TestULMTObservesOnlyDemandInNonVerbose(t *testing.T) {
	ops := seqOps(16384, 2)
	cfg := replConfig(1 << 14)
	cfg.Conven = mustConven(4, 6)
	cfg.Verbose = false
	r := mustSystem(cfg).Run("seq", ops)
	// Every processed observation is a demand miss: processed +
	// dropped cannot exceed demand misses at memory.
	if r.ULMT.MissesProcessed+r.ULMT.MissesDropped > r.DemandMissesToMemory {
		t.Errorf("non-verbose ULMT saw %d+%d observations for %d demand misses",
			r.ULMT.MissesProcessed, r.ULMT.MissesDropped, r.DemandMissesToMemory)
	}
	if r.PrefetchReqsToMemory == 0 {
		t.Error("expected processor-side prefetch requests at memory")
	}
}

func TestVerboseModeSeesMore(t *testing.T) {
	ops := seqOps(16384, 2)
	mk := func(verbose bool) Results {
		cfg := replConfig(1 << 14)
		cfg.Conven = mustConven(4, 6)
		cfg.Verbose = verbose
		return mustSystem(cfg).Run("seq", ops)
	}
	nv := mk(false)
	vb := mk(true)
	if vb.ULMT.MissesProcessed+vb.ULMT.MissesDropped <= nv.ULMT.MissesProcessed+nv.ULMT.MissesDropped {
		t.Errorf("verbose observations (%d) should exceed non-verbose (%d)",
			vb.ULMT.MissesProcessed+vb.ULMT.MissesDropped,
			nv.ULMT.MissesProcessed+nv.ULMT.MissesDropped)
	}
}

func TestNorthBridgePlacementStillWorks(t *testing.T) {
	ops := chaseOps(16384, 3)
	cfg := DefaultConfig()
	cfg.LinearPages = true
	base := mustSystem(cfg).Run("chase", ops)

	nb := replConfig(1 << 15)
	nb.MemProc = memproc.DefaultConfig(memproc.InNorthBridge)
	r := mustSystem(nb).Run("chase", ops)
	if sp := r.Speedup(base); sp < 1.1 {
		t.Errorf("NB placement speedup = %.3f; far-ahead prefetching should survive the latency", sp)
	}
	// The NB memory processor must be slower per miss.
	dr := mustSystem(replConfig(1<<15)).Run("chase", ops)
	if r.ULMT.AvgOccupancy() <= dr.ULMT.AvgOccupancy() {
		t.Errorf("NB occupancy (%.1f) should exceed in-DRAM (%.1f)",
			r.ULMT.AvgOccupancy(), dr.ULMT.AvgOccupancy())
	}
}

func TestDropPushesAblationKillsBenefit(t *testing.T) {
	ops := chaseOps(16384, 3)
	normal := mustSystem(replConfig(1<<15)).Run("chase", ops)
	dropped := func() Results {
		cfg := replConfig(1 << 15)
		cfg.DropPushes = true
		return mustSystem(cfg).Run("chase", ops)
	}()
	if dropped.Outcomes.Hits != 0 {
		t.Error("DropPushes must prevent all prefetch hits")
	}
	if dropped.Cycles <= normal.Cycles {
		t.Error("dropping pushes should not be faster than using them")
	}
}

func TestLearnFirstAblationRaisesResponse(t *testing.T) {
	ops := chaseOps(16384, 2)
	normal := mustSystem(replConfig(1<<15)).Run("chase", ops)
	lf := func() Results {
		cfg := replConfig(1 << 15)
		cfg.LearnFirst = true
		return mustSystem(cfg).Run("chase", ops)
	}()
	if lf.ULMT.AvgResponse() <= normal.ULMT.AvgResponse() {
		t.Errorf("learn-first response (%.1f) should exceed prefetch-first (%.1f)",
			lf.ULMT.AvgResponse(), normal.ULMT.AvgResponse())
	}
}

func TestStoresAreWriteAllocated(t *testing.T) {
	b := workload.NewBuilder()
	base := b.Alloc(64 * 1024)
	for i := 0; i < 1024; i++ {
		b.Store(base + mem.Addr(i*64))
	}
	// Read them back so dirty lines exist, then sweep a conflicting
	// region to force write-backs.
	far := b.Alloc(1024 * 1024)
	for i := 0; i < 16384; i++ {
		b.Load(far + mem.Addr(i*64))
	}
	cfg := DefaultConfig()
	cfg.LinearPages = true
	r := mustSystem(cfg).Run("wb", b.Ops())
	if r.L2.DirtyEvicts == 0 {
		t.Error("expected dirty L2 evictions from stored lines")
	}
}

func TestFilterSuppressesDuplicatePrefetches(t *testing.T) {
	ops := chaseOps(16384, 3)
	r := mustSystem(replConfig(1<<15)).Run("chase", ops)
	if r.FilterDropped == 0 {
		t.Error("the Filter module never dropped anything on overlapping windows")
	}
}

func TestMissDistanceRecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinearPages = true
	r := mustSystem(cfg).Run("seq", seqOps(8192, 1))
	if r.MissDistance.Total() == 0 {
		t.Error("no miss distances recorded")
	}
}

func TestCrossMatchAblation(t *testing.T) {
	// A slow issue port backs queue 3 up so that demand misses catch
	// their own lines still waiting as prefetches — the situation
	// the cross-match hardware exists for.
	ops := chaseOps(16384, 3)
	mk := func(disable bool) Results {
		cfg := replConfig(1 << 15)
		cfg.IssuePortBusy = 40
		cfg.DisableCrossMatch = disable
		return mustSystem(cfg).Run("chase", ops)
	}
	on := mk(false)
	off := mk(true)
	if on.CrossMatchedPush == 0 && on.CrossMatchedDemand == 0 {
		t.Error("cross-matching never fired on a congested controller")
	}
	if off.CrossMatchedPush != 0 || off.CrossMatchedDemand != 0 {
		t.Error("ablation still cross-matched")
	}
}

func TestBusUtilizationPositive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinearPages = true
	r := mustSystem(cfg).Run("seq", seqOps(8192, 1))
	if r.BusUtilization <= 0 || r.BusUtilization > 1 {
		t.Errorf("bus utilization = %f", r.BusUtilization)
	}
	if r.PrefetchBusShare != 0 {
		t.Errorf("NoPref run has prefetch traffic: %f", r.PrefetchBusShare)
	}
}

func TestScatteredPagingDefeatsConvenAcrossPages(t *testing.T) {
	// With scattered paging, a virtual sweep breaks into 4 KB
	// physical runs; Conven still helps but must re-detect per page.
	ops := seqOps(32768, 1)
	linear := DefaultConfig()
	linear.LinearPages = true
	linear.Conven = mustConven(4, 6)
	scattered := DefaultConfig()
	scattered.LinearPages = false
	scattered.Conven = mustConven(4, 6)
	lr := mustSystem(linear).Run("seq", ops)
	sr := mustSystem(scattered).Run("seq", ops)
	if sr.ConvenIssued >= lr.ConvenIssued {
		t.Errorf("scattered paging should reduce stream coverage: %d >= %d",
			sr.ConvenIssued, lr.ConvenIssued)
	}
}

// TestL2MSHRExhaustionRetries runs independent misses against an L2
// with only two MSHRs, so most L2 misses find the file full and take
// the retry path (retryL2Miss). Every op must still retire, the
// results must pass their checks, and the machine must drain.
func TestL2MSHRExhaustionRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2.MSHRs = 2
	ops := seqOps(8192, 1)
	sys := mustSystem(cfg)
	r := sys.Run("seq", ops)
	if r.OpsRetired != uint64(len(ops)) {
		t.Fatalf("retired %d of %d ops", r.OpsRetired, len(ops))
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if !sys.Quiesced() {
		t.Fatalf("system did not quiesce: %s", sys.DrainState())
	}
}
