package cpu

import (
	"testing"

	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// fakeMem satisfies Memory with a fixed per-level latency and a
// scripted level per address range.
type fakeMem struct {
	eng     *sim.Engine
	lat     map[Level]sim.Cycle
	levelOf func(mem.Addr) Level
	loads   int
	stores  int
}

func newFakeMem(eng *sim.Engine) *fakeMem {
	return &fakeMem{
		eng:     eng,
		lat:     map[Level]sim.Cycle{LevelL1: 3, LevelL2: 19, LevelMem: 208},
		levelOf: func(mem.Addr) Level { return LevelL1 },
	}
}

func (f *fakeMem) Load(a mem.Addr, id uint64, done Completer) {
	f.loads++
	lvl := f.levelOf(a)
	f.eng.After(f.lat[lvl], func() { done.Complete(id, lvl) })
}

func (f *fakeMem) Store(a mem.Addr, id uint64, done Completer) {
	f.stores++
	lvl := f.levelOf(a)
	f.eng.After(f.lat[lvl], func() { done.Complete(id, lvl) })
}

func run(t *testing.T, ops []workload.Op, setup func(*fakeMem)) (*Processor, *fakeMem, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	fm := newFakeMem(eng)
	if setup != nil {
		setup(fm)
	}
	p, err := New(eng, DefaultConfig(), fm, ops)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(nil)
	eng.Run()
	if !p.Finished() {
		t.Fatal("processor did not finish")
	}
	return p, fm, eng
}

func TestComputeAdvancesTime(t *testing.T) {
	ops := []workload.Op{{Kind: workload.Compute, Work: 100}}
	p, _, eng := run(t, ops, nil)
	if eng.Now() < 100 {
		t.Errorf("now = %d, want >= 100", eng.Now())
	}
	bd := p.Breakdown()
	if bd.UpToL2 != 0 || bd.BeyondL2 != 0 {
		t.Errorf("pure compute has stalls: %+v", bd)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// 8 independent memory loads: they must overlap, finishing far
	// sooner than 8x the latency.
	var ops []workload.Op
	for i := 0; i < 8; i++ {
		ops = append(ops, workload.Op{Kind: workload.Load, Addr: mem.Addr(i * 64)})
	}
	_, _, eng := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(mem.Addr) Level { return LevelMem }
	})
	if eng.Now() > 300 {
		t.Errorf("8 independent misses took %d cycles; they should overlap (~210)", eng.Now())
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	var ops []workload.Op
	for i := 0; i < 4; i++ {
		ops = append(ops, workload.Op{Kind: workload.Load, Addr: mem.Addr(i * 64), Dep: true})
	}
	p, _, eng := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(mem.Addr) Level { return LevelMem }
	})
	if eng.Now() < 3*208 {
		t.Errorf("4 dependent misses took %d cycles; they must serialize (>= 624)", eng.Now())
	}
	bd := p.Breakdown()
	if bd.BeyondL2 < 3*200 {
		t.Errorf("BeyondL2 = %d; dependent stalls must be attributed to memory", bd.BeyondL2)
	}
}

func TestPendingLoadLimit(t *testing.T) {
	// 16 independent misses with 8 MSHR-equivalent slots: two waves.
	var ops []workload.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, workload.Op{Kind: workload.Load, Addr: mem.Addr(i * 64)})
	}
	_, _, eng := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(mem.Addr) Level { return LevelMem }
	})
	if eng.Now() < 2*208 {
		t.Errorf("16 misses over 8 ports took %d, want >= 416", eng.Now())
	}
	if eng.Now() > 3*208 {
		t.Errorf("16 misses took %d, want about two waves", eng.Now())
	}
}

func TestStallAttributionByLevel(t *testing.T) {
	// A dependent L2-hit chain stalls UpToL2, not BeyondL2.
	var ops []workload.Op
	for i := 0; i < 5; i++ {
		ops = append(ops, workload.Op{Kind: workload.Load, Addr: mem.Addr(i * 64), Dep: true})
	}
	p, _, _ := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(mem.Addr) Level { return LevelL2 }
	})
	bd := p.Breakdown()
	if bd.BeyondL2 != 0 {
		t.Errorf("BeyondL2 = %d for an L2-hit chain", bd.BeyondL2)
	}
	if bd.UpToL2 < 4*19 {
		t.Errorf("UpToL2 = %d, want >= 76", bd.UpToL2)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	// A burst of stores within the buffer bound retires at issue
	// rate even when they miss to memory.
	var ops []workload.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, workload.Op{Kind: workload.Store, Addr: mem.Addr(i * 64)})
	}
	ops = append(ops, workload.Op{Kind: workload.Compute, Work: 1})
	p, fm, _ := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(mem.Addr) Level { return LevelMem }
	})
	if fm.stores != 16 {
		t.Errorf("stores issued = %d", fm.stores)
	}
	bd := p.Breakdown()
	// All 16 fit the store buffer: no store-port stall.
	if bd.BeyondL2 > 250 {
		t.Errorf("stores stalled the processor excessively: %+v", bd)
	}
}

func TestStoreBufferLimitStalls(t *testing.T) {
	var ops []workload.Op
	for i := 0; i < 40; i++ {
		ops = append(ops, workload.Op{Kind: workload.Store, Addr: mem.Addr(i * 64)})
	}
	p, _, _ := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(mem.Addr) Level { return LevelMem }
	})
	bd := p.Breakdown()
	if bd.BeyondL2 == 0 {
		t.Error("40 stores over a 16-deep buffer must stall")
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	var ops []workload.Op
	for i := 0; i < 50; i++ {
		ops = append(ops,
			workload.Op{Kind: workload.Load, Addr: mem.Addr(i * 64), Dep: i%3 == 0},
			workload.Op{Kind: workload.Compute, Work: 5},
		)
	}
	p, _, eng := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(a mem.Addr) Level { return Level(int(a/64) % 3) }
	})
	bd := p.Breakdown()
	if bd.Total() != eng.Now() {
		t.Errorf("breakdown total %d != run length %d", bd.Total(), eng.Now())
	}
}

func TestRetiredCountsOps(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.Compute, Work: 1},
		{Kind: workload.Load},
		{Kind: workload.Store},
	}
	p, _, _ := run(t, ops, nil)
	if p.Retired != 3 {
		t.Errorf("retired = %d", p.Retired)
	}
}

func TestEmptyStream(t *testing.T) {
	p, _, _ := run(t, nil, nil)
	if !p.Finished() {
		t.Error("empty stream must finish")
	}
}

func TestWindowLimitBounds(t *testing.T) {
	// One very slow load followed by massive independent L1 work:
	// the window bound must stop run-ahead.
	ops := []workload.Op{{Kind: workload.Load, Addr: 0}}
	for i := 0; i < 1000; i++ {
		ops = append(ops, workload.Op{Kind: workload.Load, Addr: mem.Addr(64 + i*64)})
	}
	cfgWindow := DefaultConfig().Window
	p, _, _ := run(t, ops, func(f *fakeMem) {
		f.levelOf = func(a mem.Addr) Level {
			if a == 0 {
				return LevelMem
			}
			return LevelL1
		}
	})
	bd := p.Breakdown()
	// The slow head load must show up as stall once the window
	// fills (1000 L1 loads can't all run ahead of it).
	if cfgWindow < 1000 && bd.BeyondL2 == 0 {
		t.Errorf("window limit never engaged: %+v", bd)
	}
}

// oooMem completes loads out of issue order: every fifth load takes
// 1500 cycles and the others a pseudo-random 3 to 258, so younger loads
// keep overtaking older ones while the run-ahead window fills behind a
// slow one. After each completion it checks the in-flight FIFO against
// the completions it has delivered.
type oooMem struct {
	t         *testing.T
	eng       *sim.Engine
	p         *Processor
	rng       uint64
	completed map[uint64]bool
	overtakes int // completions of a load younger than the FIFO head
}

func (m *oooMem) Load(a mem.Addr, id uint64, done Completer) {
	lat := sim.Cycle(1500)
	if id%5 != 0 {
		m.rng = m.rng*6364136223846793005 + 1442695040888963407
		lat = 3 + sim.Cycle(m.rng>>56)
	}
	m.eng.After(lat, func() {
		p := m.p
		if p.inflight[p.inflightHead].id != id {
			m.overtakes++
		}
		done.Complete(id, LevelMem)
		m.completed[id] = true
		head := p.inflight[p.inflightHead].id
		for i, e := range p.inflight[p.inflightHead:] {
			if e.id != head+uint64(i) {
				m.t.Fatalf("in-flight ids not consecutive: %d at offset %d from head %d", e.id, i, head)
			}
			if e.done != m.completed[e.id] {
				m.t.Fatalf("after completing load %d: load %d done=%v, completed=%v",
					id, e.id, e.done, m.completed[e.id])
			}
		}
	})
}

func (m *oooMem) Store(a mem.Addr, id uint64, done Completer) {
	m.eng.After(3, func() { done.Complete(id, LevelL1) })
}

// TestOutOfOrderLoadCompletions drives loads that complete out of
// order across a full run-ahead window and checks that each
// completion marks exactly its own in-flight entry, wherever it sits
// behind the FIFO head.
func TestOutOfOrderLoadCompletions(t *testing.T) {
	var ops []workload.Op
	for i := 0; i < 4000; i++ {
		if i%8 == 0 {
			ops = append(ops, workload.Op{Kind: workload.Load, Addr: mem.Addr(i * 64)})
		} else {
			ops = append(ops, workload.Op{Kind: workload.Compute, Work: 1})
		}
	}
	eng := sim.NewEngine()
	m := &oooMem{t: t, eng: eng, rng: 1, completed: map[uint64]bool{}}
	p, err := New(eng, DefaultConfig(), m, ops)
	if err != nil {
		t.Fatal(err)
	}
	m.p = p
	p.Start(nil)
	eng.Run()
	if !p.Finished() || p.pendingLoads != 0 {
		t.Fatalf("finished=%v with %d loads pending", p.Finished(), p.pendingLoads)
	}
	if len(m.completed) != 500 || m.overtakes == 0 {
		t.Fatalf("%d loads completed, %d out of order", len(m.completed), m.overtakes)
	}
	if p.BlockEvents[blockWindow] == 0 {
		t.Fatal("the run-ahead window never filled")
	}
}

func TestInvalidConfigErrors(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{}, newFakeMem(sim.NewEngine()), nil); err == nil {
		t.Error("invalid config must return an error")
	}
	if err := (Config{IssueWidth: 1, MaxPendingLoads: 1, MaxPendingStores: 0}).Validate(); err == nil {
		t.Error("zero MaxPendingStores must fail validation")
	}
}
