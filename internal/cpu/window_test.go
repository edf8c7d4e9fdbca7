package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
	"ulmt/internal/workload"
)

// probe is fakeMem's synchronous L1 lookup for windowed stretches.
// Per the SetWindowed contract, a hit applies the same statistics
// effects the asynchronous path would (here: the load/store
// counters), so the counters stay comparable across schedules; a miss
// touches nothing.
func (f *fakeMem) probe(a mem.Addr, write bool) (sim.Cycle, bool) {
	if f.levelOf(a) != LevelL1 {
		return 0, false
	}
	if write {
		f.stores++
	} else {
		f.loads++
	}
	return f.lat[LevelL1], true
}

// procDomain adapts a processor to sim.Domain, as core.MultiSystem's
// coreDomain does for each core.
type procDomain struct{ p *Processor }

func (d procDomain) ArmedAt() (sim.Cycle, bool) { return d.p.Armed() }
func (d procDomain) Stretch(h sim.Cycle)        { d.p.RunStretch(h) }
func (d procDomain) Commit()                    { d.p.CommitStretch() }

// runWindowed runs p, set up with SetWindowed, as the one domain of a
// DomainEngine over eng until nothing remains.
func runWindowed(eng *sim.Engine, p *Processor) {
	de := sim.NewDomainEngine(eng)
	de.Add(procDomain{p})
	de.Run()
}

// snapshot is everything observable about a finished run. The
// equivalence tests require it to be identical whether the processor
// ran windowed, retiring L1 hits in stretches, or through the event
// queue.
type snapshot struct {
	Now           sim.Cycle
	Retired       uint64
	IssueCycles   uint64
	ComputeCycles uint64
	Blocked       [5]sim.Cycle
	BlockEvents   [5]uint64
	Breakdown     stats.ExecBreakdown
	Loads, Stores int
}

// runMode executes ops to completion, either as a one-core windowed
// processor on a one-domain DomainEngine or on the plain event queue.
// drive, if non-nil, may schedule external events (tickers, pauses)
// against the engine and processor before the run starts.
func runMode(t *testing.T, ops []workload.Op, windowed bool,
	levelOf func(mem.Addr) Level,
	drive func(*sim.Engine, *Processor)) snapshot {
	t.Helper()
	eng := sim.NewEngine()
	fm := newFakeMem(eng)
	if levelOf != nil {
		fm.levelOf = levelOf
	}
	p, err := New(eng, DefaultConfig(), fm, ops)
	if err != nil {
		t.Fatal(err)
	}
	if windowed {
		p.SetWindowed(fm.probe)
	}
	p.Start(nil)
	if drive != nil {
		drive(eng, p)
	}
	if windowed {
		runWindowed(eng, p)
	} else {
		eng.Run()
	}
	if !p.Finished() {
		t.Fatal("processor did not finish")
	}
	return snapshot{
		Now:           eng.Now(),
		Retired:       p.Retired,
		IssueCycles:   p.IssueCycles,
		ComputeCycles: p.ComputeCycles,
		Blocked:       p.BlockedByReason,
		BlockEvents:   p.BlockEvents,
		Breakdown:     p.Breakdown(),
		Loads:         fm.loads,
		Stores:        fm.stores,
	}
}

// bothModes runs ops windowed and through the event queue and fails
// on any observable divergence.
func bothModes(t *testing.T, ops []workload.Op,
	levelOf func(mem.Addr) Level,
	drive func(*sim.Engine, *Processor)) {
	t.Helper()
	win := runMode(t, ops, true, levelOf, drive)
	evq := runMode(t, ops, false, levelOf, drive)
	if !reflect.DeepEqual(win, evq) {
		t.Errorf("stretch loop diverged from the event path:\n windowed: %+v\n events:   %+v", win, evq)
	}
}

// mixLevel scripts the service level from the address, deterministic
// across both runs: 7/10 L1, 2/10 L2, 1/10 memory.
func mixLevel(a mem.Addr) Level {
	switch v := (a / 64) % 10; {
	case v < 7:
		return LevelL1
	case v < 9:
		return LevelL2
	default:
		return LevelMem
	}
}

// randomOps generates a deterministic op mix: ~60% loads (some
// dependent), ~20% stores, ~20% compute of varying width.
func randomOps(seed int64, n int) []workload.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		a := mem.Addr(rng.Intn(1<<14)) * 64
		switch r := rng.Float64(); {
		case r < 0.6:
			ops = append(ops, workload.Op{Kind: workload.Load, Addr: a, Dep: rng.Float64() < 0.3})
		case r < 0.8:
			ops = append(ops, workload.Op{Kind: workload.Store, Addr: a})
		default:
			ops = append(ops, workload.Op{Kind: workload.Compute, Work: uint16(1 + rng.Intn(8))})
		}
	}
	return ops
}

func TestStretchEquivalenceRandomMixes(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		ops := randomOps(seed, 4000)
		bothModes(t, ops, mixLevel, nil)
	}
}

func TestStretchEquivalenceAllL1(t *testing.T) {
	// The pure-hit stream exercises the longest stretches, including
	// load-port and store-port stalls cleared by ring completions.
	ops := randomOps(3, 4000)
	bothModes(t, ops, nil, nil)
}

func TestStretchEquivalenceExternalTicker(t *testing.T) {
	// A self-rescheduling external event every 7 cycles keeps the
	// window horizon tight, forcing stretches to end, commit their
	// ring and re-arm constantly.
	ops := randomOps(5, 2000)
	drive := func(eng *sim.Engine, p *Processor) {
		var tick func()
		tick = func() {
			if p.Finished() {
				return
			}
			eng.After(7, tick)
		}
		eng.After(7, tick)
	}
	bothModes(t, ops, mixLevel, drive)
	bothModes(t, ops, nil, drive) // all-L1: every exit is a horizon exit
}

func TestStretchEquivalencePauseResume(t *testing.T) {
	ops := randomOps(9, 3000)
	drive := func(eng *sim.Engine, p *Processor) {
		for _, w := range []struct{ pause, resume sim.Cycle }{
			{50, 400}, {900, 1500}, {2100, 2105},
		} {
			w := w
			eng.At(w.pause, p.Pause)
			eng.At(w.resume, p.Resume)
		}
	}
	bothModes(t, ops, mixLevel, drive)
}

func TestStretchSkipsEvents(t *testing.T) {
	// An all-L1 stream is a closed subsystem: a windowed processor
	// with nothing else on the queue retires the whole run in one
	// stretch and commits only its finish, while the event path fires
	// one event per step and completion.
	ops := randomOps(11, 3000)
	eng := sim.NewEngine()
	fm := newFakeMem(eng)
	p, err := New(eng, DefaultConfig(), fm, ops)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWindowed(fm.probe)
	p.Start(nil)
	runWindowed(eng, p)
	if !p.Finished() {
		t.Fatal("processor did not finish")
	}
	if eng.Fired() > 8 {
		t.Errorf("stretch fired %d events for an all-L1 stream, want <= 8", eng.Fired())
	}

	slow := sim.NewEngine()
	ps, err := New(slow, DefaultConfig(), newFakeMem(slow), ops)
	if err != nil {
		t.Fatal(err)
	}
	ps.Start(nil)
	slow.Run()
	if slow.Fired() < uint64(len(ops)) {
		t.Errorf("event path fired %d events, want >= one per op (%d)", slow.Fired(), len(ops))
	}
	if slow.Now() != eng.Now() {
		t.Errorf("finish time diverged: windowed %d, events %d", eng.Now(), slow.Now())
	}
}

func TestZeroAllocStretchRetire(t *testing.T) {
	// The stretch loop must not allocate in steady state: after one
	// warmup run has grown the ring and inflight buffers, replaying
	// the whole stream through RunStretch is allocation-free.
	ops := randomOps(13, 2000)
	eng := sim.NewEngine()
	fm := newFakeMem(eng)
	p, err := New(eng, DefaultConfig(), fm, ops)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWindowed(fm.probe)
	p.Start(nil)
	runWindowed(eng, p)
	if !p.Finished() {
		t.Fatal("warmup run did not finish")
	}
	allocs := testing.AllocsPerRun(10, func() {
		// Rewind the stream and re-arm its first step; with no
		// horizon, the stretch retires everything and latches the
		// finish.
		p.pc = 0
		p.finished = false
		p.armed, p.stepAt = true, eng.Now()
		p.RunStretch(sim.Forever)
		if !p.strFinished {
			t.Fatal("stretch replay did not finish")
		}
		p.strFinished = false
	})
	if allocs != 0 {
		t.Errorf("stretch retire loop allocates: %.1f allocs/run, want 0", allocs)
	}
}
