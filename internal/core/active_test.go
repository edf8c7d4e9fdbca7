package core

import (
	"testing"

	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/workload"
)

func TestBuildSliceSkeleton(t *testing.T) {
	b := workload.NewBuilder()
	base := b.Alloc(4096)
	b.Work(10)
	b.Load(base)          // line 0
	b.Load(base + 8)      // same line: collapsed
	b.LoadDep(base + 128) // line 2, dependent
	b.Store(base + 128)   // same line: collapsed, keeps Dep
	b.Load(base + 256)    // line 4
	sl := BuildSlice(b.Ops(), true, 1, mem.LineSize64)
	if sl.Len() != 3 {
		t.Fatalf("slice length = %d, want 3", sl.Len())
	}
	var nullSink noCostSink
	l1, _ := sl.Next(&nullSink)
	l2, _ := sl.Next(&nullSink)
	l3, _ := sl.Next(&nullSink)
	if l2 != l1+2 || l3 != l1+4 {
		t.Errorf("lines = %v %v %v", l1, l2, l3)
	}
	if _, ok := sl.Next(&nullSink); ok {
		t.Error("exhausted slice still yields")
	}
}

type noCostSink struct{}

func (noCostSink) Touch(mem.Addr, int, bool) {}
func (noCostSink) Instr(int)                 {}

func TestActivePrefetchingSpeedsUpPointerChase(t *testing.T) {
	// A scattered pointer chase is the active helper's best case:
	// it chases the chain at in-DRAM latency while the CPU would pay
	// the full round trip per hop.
	ops := chaseOps(16384, 2)
	cfg := DefaultConfig()
	cfg.LinearPages = true
	base := mustSystem(cfg).Run("chase", ops)

	acfg := DefaultConfig()
	acfg.LinearPages = true
	acfg.Active = &ActiveConfig{
		Slice:    BuildSlice(ops, true, 0, mem.LineSize64),
		MaxAhead: 12,
	}
	r := mustSystem(acfg).Run("chase", ops)
	if r.OpsRetired != uint64(len(ops)) {
		t.Fatalf("retired %d of %d", r.OpsRetired, len(ops))
	}
	sp := r.Speedup(base)
	if sp < 1.5 {
		t.Errorf("active speedup = %.3f, want > 1.5 on a pure chase", sp)
	}
	if r.PushesToL2 == 0 || r.Outcomes.Hits == 0 {
		t.Errorf("active thread pushed nothing useful: %+v", r.Outcomes)
	}
}

func TestActiveVsPassiveFirstTraversal(t *testing.T) {
	// On the FIRST traversal a correlation table knows nothing; the
	// active slice needs no training. One lap of a chase:
	ops := chaseOps(16384, 1)
	cfg := DefaultConfig()
	cfg.LinearPages = true
	base := mustSystem(cfg).Run("chase", ops)

	passive := mustSystem(replConfig(1<<15)).Run("chase", ops)

	acfg := DefaultConfig()
	acfg.LinearPages = true
	acfg.Active = &ActiveConfig{Slice: BuildSlice(ops, true, 0, mem.LineSize64)}
	active := mustSystem(acfg).Run("chase", ops)

	if active.Speedup(base) <= passive.Speedup(base) {
		t.Errorf("active (%.3f) should beat passive (%.3f) on an untrained first lap",
			active.Speedup(base), passive.Speedup(base))
	}
}

func TestActiveThrottleBoundsRunAhead(t *testing.T) {
	ops := chaseOps(8192, 1)
	acfg := DefaultConfig()
	acfg.LinearPages = true
	acfg.Active = &ActiveConfig{Slice: BuildSlice(ops, true, 0, mem.LineSize64), MaxAhead: 4}
	sys := mustSystem(acfg)
	r := sys.Run("chase", ops)
	if sys.active.generated == 0 {
		t.Fatal("no slice progress")
	}
	if sys.active.stalls == 0 {
		t.Error("a MaxAhead of 4 should throttle the helper sometimes")
	}
	if r.OpsRetired != uint64(len(ops)) {
		t.Error("run incomplete")
	}
}

func TestActiveNorthBridgeSlowerChase(t *testing.T) {
	// The active helper's pointer chasing speed is its own memory
	// latency: in the North Bridge it is ~3x slower per hop, so the
	// chase benefit shrinks (the Fig 8 story, amplified for active
	// mode).
	ops := chaseOps(16384, 1)
	cfg := DefaultConfig()
	cfg.LinearPages = true
	base := mustSystem(cfg).Run("chase", ops)

	mk := func(cfg Config) float64 {
		cfg.LinearPages = true
		cfg.Active = &ActiveConfig{Slice: BuildSlice(ops, true, 0, mem.LineSize64)}
		return mustSystem(cfg).Run("chase", ops).Speedup(base)
	}
	inDRAM := mk(DefaultConfig())
	nbCfg := DefaultConfig()
	nbCfg.MemProc = memproc.DefaultConfig(memproc.InNorthBridge)
	nb := mk(nbCfg)
	if nb >= inDRAM {
		t.Errorf("NB active (%.3f) should trail in-DRAM active (%.3f)", nb, inDRAM)
	}
}

var _ = prefetch.SliceStep{} // documented type used by BuildSlice
