package core

import (
	"testing"
	"testing/quick"

	"ulmt/internal/bus"
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// randomOps synthesizes an arbitrary-but-valid op stream from fuzz
// bytes: a mix of loads (some dependent), stores and compute over a
// multi-megabyte region.
func randomOps(seed []byte) []workload.Op {
	b := workload.NewBuilder()
	region := b.Alloc(4 << 20)
	state := uint64(1)
	for _, by := range seed {
		state = state*6364136223846793005 + uint64(by) + 1
		addr := region + mem.Addr((state>>8)%(4<<20))
		switch by % 5 {
		case 0:
			b.Load(addr)
		case 1:
			b.LoadDep(addr)
		case 2:
			b.Store(addr)
		case 3:
			b.Work(int(by) + 1)
		case 4:
			// A small sequential burst.
			for i := 0; i < int(by%8)+1; i++ {
				b.Load(addr + mem.Addr(i*32))
			}
		}
	}
	// Guarantee at least one op.
	b.Load(region)
	return b.Ops()
}

// TestSystemInvariantsUnderRandomStreams drives the full machine with
// arbitrary streams and checks conservation properties that must hold
// regardless of input:
//
//   - every op retires;
//   - the execution-time breakdown tiles the run exactly;
//   - prefetch outcomes never exceed the lines pushed;
//   - identical runs are bit-identical (determinism).
func TestSystemInvariantsUnderRandomStreams(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 2000 {
			seed = seed[:2000]
		}
		ops := randomOps(seed)
		mk := func() Config {
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.ULMT = prefetch.NewRepl(table.NewRepl(table.ReplParams(1<<12), TableBase))
			cfg.Conven = mustConven(4, 6)
			return cfg
		}
		a := mustSystem(mk()).Run("fuzz", ops)
		if a.OpsRetired != uint64(len(ops)) {
			t.Logf("retired %d of %d", a.OpsRetired, len(ops))
			return false
		}
		if a.Exec.Total() != a.Cycles {
			t.Logf("breakdown %d != cycles %d", a.Exec.Total(), a.Cycles)
			return false
		}
		o := a.Outcomes
		if o.Hits+o.Replaced+o.Redundant > a.PushesToL2+o.Hits {
			// Hits can also come from processor-side prefetches
			// hitting pushed lines, hence the slack term.
			t.Logf("outcome conservation violated: %+v pushes=%d", o, a.PushesToL2)
			return false
		}
		b := mustSystem(mk()).Run("fuzz", ops)
		if b.Cycles != a.Cycles || b.Outcomes != a.Outcomes {
			t.Logf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSystemInvariantsAllConfigs runs one fixed stream through every
// named configuration, checking the same conservation rules.
func TestSystemInvariantsAllConfigs(t *testing.T) {
	ops := randomOps([]byte("the quick brown fox jumps over the lazy dog, repeatedly and at length, to generate a stream"))
	configs := []func() Config{
		func() Config { return DefaultConfig() },
		func() Config {
			cfg := DefaultConfig()
			cfg.Conven = mustConven(4, 6)
			return cfg
		},
		func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = prefetch.NewBase(table.NewBase(table.BaseParams(1<<10), TableBase))
			return cfg
		},
		func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = mustChain(table.NewBase(table.ChainParams(1<<10), TableBase), 3)
			return cfg
		},
		func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = mustSeq(4, 6, TableBase)
			return cfg
		},
		func() Config {
			cfg := DefaultConfig()
			cfg.Active = &ActiveConfig{Slice: BuildSlice(ops, false, 0, mem.LineSize64)}
			return cfg
		},
	}
	for i, mk := range configs {
		r := mustSystem(mk()).Run("fixed", ops)
		if r.OpsRetired != uint64(len(ops)) {
			t.Errorf("config %d: retired %d of %d", i, r.OpsRetired, len(ops))
		}
		if r.Exec.Total() != r.Cycles {
			t.Errorf("config %d: breakdown mismatch", i)
		}
	}
}

// busRec is one observed bus completion for the property tests below.
type busRec struct {
	kind bus.Kind
	seq  int
	done sim.Cycle
}

// busRecorder is a test actor that logs each bus completion: the
// transfer's kind (delivered as the event kind), its per-class
// sequence number (I0) and the cycle it landed.
type busRecorder struct {
	eng *sim.Engine
	got []busRec
}

func (r *busRecorder) Fire(k sim.Kind, ev sim.Event) {
	r.got = append(r.got, busRec{kind: bus.Kind(k), seq: int(ev.I0), done: r.eng.Now()})
}

// transfer enqueues a line or a request packet of kind, tagged seq.
func (r *busRecorder) transfer(b *bus.Bus, kind bus.Kind, seq int, line bool) {
	ev := sim.Event{I0: uint64(seq)}
	if line {
		b.TransferLineTo(kind, r, sim.Kind(kind), ev)
	} else {
		b.TransferRequestTo(kind, r, sim.Kind(kind), ev)
	}
}

// TestBusNoOverlapRandomTraffic drives a standalone shared bus with
// an arbitrary arrival pattern from several requesters and checks the
// medium's physical invariants: transfers never overlap (each grant
// begins at or after the previous transfer's last beat), every
// enqueued transfer completes exactly once, and the per-class
// transfer counters agree with what was enqueued.
func TestBusNoOverlapRandomTraffic(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng, bus.DefaultConfig())

	var prevDone sim.Cycle
	grants := 0
	b.SetStretch(func(now, dur sim.Cycle) sim.Cycle {
		if now < prevDone {
			t.Fatalf("grant at %d overlaps transfer busy until %d", now, prevDone)
		}
		prevDone = now + dur
		grants++
		return dur
	})

	rec := &busRecorder{eng: eng}
	enq := map[bus.Kind]int{}
	state := uint64(7)
	next := func() uint64 { state = state*6364136223846793005 + 13; return state >> 8 }
	// Arrivals spread over time from three synthetic requesters, with
	// clustered bursts to force sustained backlog. Per-class sequence
	// numbers are assigned at arrival time (inside the At callback):
	// FIFO order is promised with respect to when a transfer reaches
	// the bus, not when the test constructed it.
	for i := 0; i < 300; i++ {
		kind := bus.Kind(next() % 3)
		at := sim.Cycle(next() % 512)
		line := next()%2 == 0
		k := kind
		eng.At(at, func() {
			s := enq[k]
			enq[k] = s + 1
			rec.transfer(b, k, s, line)
		})
	}
	eng.Run()
	got := rec.got

	if len(got) != 300 {
		t.Fatalf("enqueued 300 transfers, %d completed", len(got))
	}
	if grants != 300 {
		t.Fatalf("observed %d grants for 300 transfers", grants)
	}
	tc := b.Transfers()
	if int(tc.Demand) != enq[bus.Demand] || int(tc.Writeback) != enq[bus.Writeback] || int(tc.Prefetch) != enq[bus.Prefetch] {
		t.Fatalf("transfer counters %+v do not match enqueued %v", tc, enq)
	}
	// Within a class, the bus is a FIFO: completions must come back
	// in enqueue order. (Demand has its own queue; writeback and
	// prefetch share the low-priority queue, so each class is still
	// individually ordered.)
	last := map[bus.Kind]int{bus.Demand: -1, bus.Writeback: -1, bus.Prefetch: -1}
	for _, r := range got {
		if r.seq <= last[r.kind] {
			t.Fatalf("kind %d completed out of order: seq %d after %d", r.kind, r.seq, last[r.kind])
		}
		last[r.kind] = r.seq
	}
}

// TestBusGrantFairnessBound pins the arbiter's service guarantees
// under saturation. With every transfer enqueued up front: demand
// traffic is strictly prioritized (all demands finish before any
// low-priority transfer), low-priority traffic is served FIFO with no
// reordering between writebacks and prefetches, and the bus is
// work-conserving — the last completion lands exactly at the sum of
// all transfer durations, so no transfer waits longer than the total
// work ahead of it.
func TestBusGrantFairnessBound(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng, bus.DefaultConfig())

	rec := &busRecorder{eng: eng}
	var want sim.Cycle
	seq := 0
	add := func(kind bus.Kind, line bool) {
		rec.transfer(b, kind, seq, line)
		seq++
		if line {
			want += b.LineCycles()
		} else {
			want += bus.DefaultConfig().RequestBeats * bus.DefaultConfig().CyclesPerBeat
		}
	}
	// Interleave the classes so priority, not arrival order, decides.
	for i := 0; i < 20; i++ {
		add(bus.Writeback, true)
		add(bus.Demand, i%2 == 0)
		add(bus.Prefetch, true)
	}
	eng.Run()
	got := rec.got

	if len(got) != seq {
		t.Fatalf("enqueued %d transfers, %d completed", seq, len(got))
	}
	if final := got[len(got)-1].done; final != want {
		t.Fatalf("last completion at %d, total work is %d: bus idled under backlog", final, want)
	}
	// All demands precede every low-priority completion. The very
	// first grant happens before priorities can apply (the medium is
	// free when the first writeback arrives), so skip it.
	lowSeen := false
	for i, r := range got {
		if i == 0 {
			continue
		}
		if r.kind == bus.Demand && lowSeen {
			t.Fatalf("demand seq %d completed after a low-priority transfer", r.seq)
		}
		if r.kind != bus.Demand {
			lowSeen = true
		}
	}
	// Low-priority completions keep their mutual enqueue order.
	lastLow := -1
	for _, r := range got {
		if r.kind == bus.Demand {
			continue
		}
		if r.seq <= lastLow {
			t.Fatalf("low-priority transfer seq %d completed after seq %d", r.seq, lastLow)
		}
		lastLow = r.seq
	}
}
