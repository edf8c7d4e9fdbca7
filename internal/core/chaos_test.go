package core

import (
	"reflect"
	"testing"

	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/queue"
	"ulmt/internal/sim"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// The chaos suite tests the paper's safety argument (§3.2, §3.4):
// ULMT prefetching is purely speculative, so no schedule of dropped
// observations, lost or delayed pushes, thread preemptions, bandwidth
// faults or OS page remaps may change what the program computes — only
// how long it takes.

func mcfTinyOps(t testing.TB) []workload.Op {
	t.Helper()
	w, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(workload.ScaleTiny)
}

// chaosConfig is the full prefetching machine the chaos tests fault.
func chaosConfig(plan *fault.Plan) Config {
	cfg := replConfig(1 << 15)
	cfg.Faults = plan
	return cfg
}

// TestChaosHeavySchedule throws the aggressive preset — lossy queues,
// long preemptions, bus brownouts, DRAM spikes and page remaps — at a
// full Repl machine for several seeds, and asserts the system always
// retires every op, services every demand miss and drains to an empty
// steady state.
func TestChaosHeavySchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedule is slow")
	}
	// 1 MB working set: twice the L2, so every rep misses and the
	// ULMT has real pushes for the fault layer to drop and delay.
	ops := chaseOps(16384, 3)
	for _, seed := range []uint64{11, 22, 33} {
		plan := fault.Heavy(seed)
		sys := mustSystem(chaosConfig(plan))
		r := sys.Run("chase", ops)

		if r.OpsRetired != uint64(len(ops)) {
			t.Fatalf("seed %d: retired %d of %d ops", seed, r.OpsRetired, len(ops))
		}
		if !sys.Quiesced() {
			t.Fatalf("seed %d: system did not quiesce: %s", seed, sys.DrainState())
		}
		if r.DemandMissesToMemory == 0 {
			t.Fatalf("seed %d: no demand misses reached memory", seed)
		}
		// The schedule must actually have exercised every fault class.
		f := r.Faults
		if f.ObservationsDropped == 0 || f.PushesDropped == 0 || f.Stalls == 0 {
			t.Fatalf("seed %d: queue/thread faults not exercised: %+v", seed, f)
		}
		if f.BusSlowTransfers == 0 || f.BankPenalties == 0 {
			t.Fatalf("seed %d: bandwidth faults not exercised: %+v", seed, f)
		}
		if f.RemapsScheduled != uint64(plan.Config().Remaps) {
			t.Fatalf("seed %d: scheduled %d remaps, want %d", seed, f.RemapsScheduled, plan.Config().Remaps)
		}
		t.Logf("seed %d: cycles=%d faults=%d (drops obs=%d push=%d delay=%d stalls=%d slowbus=%d spikes=%d)",
			seed, r.Cycles, f.Total(), f.ObservationsDropped, f.PushesDropped,
			f.PushesDelayed, f.Stalls, f.BusSlowTransfers, f.BankPenalties)
	}
}

// TestChaosDemandSemanticsExact isolates the speculative machinery so
// demand semantics become exactly comparable: every load is
// serialized (Dep), every generated push is dropped before queue 3,
// and no pages remap. Then timing faults — lossy observations, thread
// preemptions, brownouts, spikes — may change *when* things happen but
// not *what* happens: the demand miss count, the cache stats and the
// final cache image must be bit-identical to the unfaulted run.
func TestChaosDemandSemanticsExact(t *testing.T) {
	ops := chaseOps(4096, 2)

	run := func(plan *fault.Plan) (Results, uint64) {
		sys := mustSystem(chaosConfig(plan))
		r := sys.Run("chase", ops)
		if !sys.Quiesced() {
			t.Fatalf("system did not quiesce: %s", sys.DrainState())
		}
		return r, sys.CacheFingerprint()
	}

	base, baseFP := run(nil)

	for _, seed := range []uint64{5, 6, 7} {
		plan, err := fault.NewPlan(fault.Config{
			Seed:                  seed,
			DropObservationPer10k: 3000,
			DropPushPer10k:        10000, // every push lost: pure timing faults remain
			StallPer10k:           5000,
			MaxStall:              10000,
			BrownoutPeriod:        40000,
			BrownoutLen:           8000,
			BrownoutFactor:        4,
			SpikePeriod:           25000,
			SpikeLen:              5000,
			SpikeExtra:            150,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, fp := run(plan)

		if r.Faults.Total() == 0 {
			t.Fatalf("seed %d: no faults injected", seed)
		}
		if r.OpsRetired != base.OpsRetired {
			t.Errorf("seed %d: retired %d ops, base %d", seed, r.OpsRetired, base.OpsRetired)
		}
		if r.DemandMissesToMemory != base.DemandMissesToMemory {
			t.Errorf("seed %d: demand misses %d, base %d", seed, r.DemandMissesToMemory, base.DemandMissesToMemory)
		}
		if r.L1 != base.L1 {
			t.Errorf("seed %d: L1 stats %+v, base %+v", seed, r.L1, base.L1)
		}
		if r.L2 != base.L2 {
			t.Errorf("seed %d: L2 stats %+v, base %+v", seed, r.L2, base.L2)
		}
		if fp != baseFP {
			t.Errorf("seed %d: cache fingerprint %#x, base %#x", seed, fp, baseFP)
		}
	}
}

// TestRunDeterminismDeep asserts that two Systems built from the same
// configuration — including a fault plan — produce byte-identical
// results structs, field for field.
func TestRunDeterminismDeep(t *testing.T) {
	ops := chaseOps(2048, 2)
	mk := func() Results {
		return mustSystem(chaosConfig(fault.Light(9))).Run("chase", ops)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical configs diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestNilPlanGolden pins the unfaulted machine to pre-fault-layer
// behavior: with no plan installed, the numbers below were captured
// on the tree before the fault layer existed and must never move.
func TestNilPlanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	type golden struct {
		cycles           sim.Cycle
		demand, pushes   uint64
		q2Drops, q3Drops uint64
		xmd, xmp         uint64
		l2Miss, l1Miss   uint64
		retired          uint64
		hits, delayed    uint64
	}
	want := map[string]golden{
		"NoPref": {cycles: 11106645, demand: 40456, l2Miss: 40456, l1Miss: 106615, retired: 156794},
		"Repl": {cycles: 11182259, demand: 40298, pushes: 540, xmp: 1,
			l2Miss: 40298, l1Miss: 106615, retired: 156794, hits: 179, delayed: 197},
	}
	ops := mcfTinyOps(t)
	for _, lbl := range []string{"NoPref", "Repl"} {
		cfg := DefaultConfig()
		cfg.Seed = 7
		if lbl == "Repl" {
			p := table.ReplParams(1 << 12)
			p.NumLevels = 3
			cfg.ULMT = prefetch.NewRepl(table.NewRepl(p, TableBase))
		}
		r := mustSystem(cfg).Run("Mcf", ops)
		got := golden{
			cycles: r.Cycles, demand: r.DemandMissesToMemory, pushes: r.PushesToL2,
			q2Drops: r.Q2Drops, q3Drops: r.Q3Drops,
			xmd: r.CrossMatchedDemand, xmp: r.CrossMatchedPush,
			l2Miss: r.L2.Misses, l1Miss: r.L1.Misses, retired: r.OpsRetired,
			hits: r.Outcomes.Hits, delayed: r.Outcomes.DelayedHits,
		}
		if got != want[lbl] {
			t.Errorf("%s drifted from pre-fault-layer golden:\n got %+v\nwant %+v", lbl, got, want[lbl])
		}
		if r.Faults.Total() != 0 || r.DegradedSheds != 0 || r.DegradedDrops != 0 {
			t.Errorf("%s: nil plan injected faults: %+v sheds=%d drops=%d",
				lbl, r.Faults, r.DegradedSheds, r.DegradedDrops)
		}
	}
}

// --- Queue cross-matching edge cases (paper §3.2) ---

// TestCrossMatchPushAgainstPendingMiss: a generated prefetch matching
// a request already in queue 1 (or an observation in queue 2) is
// cancelled, and the queue-2 copy is removed to save ULMT occupancy.
func TestCrossMatchPushAgainstPendingMiss(t *testing.T) {
	s := mustSystem(replConfig(1 << 10))

	s.q1.Push(queue.Entry{Line: 42})
	s.enqueuePrefetch(42)
	if s.xMatchPush != 1 {
		t.Fatalf("push vs queue-1 demand not cancelled: xMatchPush=%d", s.xMatchPush)
	}
	if s.q3.ContainsLine(42) {
		t.Fatal("cancelled prefetch still entered queue 3")
	}

	s.q2.Push(queue.Entry{Line: 43})
	s.enqueuePrefetch(43)
	if s.xMatchPush != 2 {
		t.Fatalf("push vs queue-2 observation not cancelled: xMatchPush=%d", s.xMatchPush)
	}
	if s.q2.ContainsLine(43) {
		t.Fatal("cross-matched observation not removed from queue 2")
	}
	if s.q3.ContainsLine(43) {
		t.Fatal("cancelled prefetch still entered queue 3")
	}
}

// TestCrossMatchDemandAgainstWaitingPrefetch: the other direction — a
// demand miss arriving at the controller removes a waiting queue-3
// prefetch for the same line and proceeds as a plain demand.
func TestCrossMatchDemandAgainstWaitingPrefetch(t *testing.T) {
	s := mustSystem(replConfig(1 << 10))
	line := mem.Line(77)
	s.q3.Push(queue.Entry{Line: line, Prefetch: true})

	// Hold the issue port so the deposited request stays visible in
	// queue 1 for the assertion below.
	s.issueBusy = true
	s.arriveController(&l2Miss{line: line})
	if s.xMatchDemand != 1 {
		t.Fatalf("demand did not cancel waiting prefetch: xMatchDemand=%d", s.xMatchDemand)
	}
	if s.q3.ContainsLine(line) {
		t.Fatal("cancelled prefetch still in queue 3")
	}
	if !s.q1.ContainsLine(line) {
		t.Fatal("demand miss did not enter queue 1")
	}
}

// TestQ2OverflowDropAccounting: observations that find queue 2 full
// are dropped and charged to the ULMT's MissesDropped counter, not
// lost silently.
func TestQ2OverflowDropAccounting(t *testing.T) {
	cfg := replConfig(1 << 10)
	s := mustSystem(cfg)
	s.ulmtBusy = true // keep the thread from draining the queue
	for i := 0; i < cfg.QueueDepth; i++ {
		if !s.q2.Push(queue.Entry{Line: mem.Line(1000 + i)}) {
			t.Fatalf("queue 2 refused entry %d below capacity %d", i, cfg.QueueDepth)
		}
	}
	s.arriveController(&l2Miss{line: 2000})
	if got := s.mp.Stats().MissesDropped; got != 1 {
		t.Fatalf("overflow observation not accounted: MissesDropped=%d", got)
	}
}

// TestFilterWithFullQueue3: a prefetch admitted by the Filter but
// dropped by a full queue 3 counts as a q3 drop exactly once; the
// Filter (which already recorded the address) suppresses an immediate
// re-emit, so the drop is not double counted.
func TestFilterWithFullQueue3(t *testing.T) {
	cfg := replConfig(1 << 10)
	s := mustSystem(cfg)
	for i := 0; i < cfg.QueueDepth; i++ {
		if !s.q3.Push(queue.Entry{Line: mem.Line(3000 + i), Prefetch: true}) {
			t.Fatalf("queue 3 refused entry %d below capacity %d", i, cfg.QueueDepth)
		}
	}
	s.depositPrefetches([]mem.Line{4000})
	if s.q3Drops != 1 {
		t.Fatalf("full queue 3 drop not counted: q3Drops=%d", s.q3Drops)
	}
	s.depositPrefetches([]mem.Line{4000})
	if s.q3Drops != 1 {
		t.Fatalf("Filter failed to suppress re-emit: q3Drops=%d", s.q3Drops)
	}
	// A line still sitting in queue 3 is also not re-queued or
	// re-counted when generated again.
	s.depositPrefetches([]mem.Line{3000 + mem.Line(cfg.QueueDepth) - 1})
	if s.q3Drops != 1 {
		t.Fatalf("queued line re-deposit miscounted: q3Drops=%d", s.q3Drops)
	}
}
