package bus

import (
	"testing"
	"testing/quick"

	"ulmt/internal/sim"
)

// recorder is a test actor that logs every completion the bus
// delivers to it: the event's I0 tag and the cycle it arrived.
type recorder struct {
	eng  *sim.Engine
	tags []uint64
	at   []sim.Cycle
}

func (r *recorder) Fire(_ sim.Kind, ev sim.Event) {
	r.tags = append(r.tags, ev.I0)
	r.at = append(r.at, r.eng.Now())
}

// line enqueues a line transfer tagged with its kind.
func (r *recorder) line(b *Bus, kind Kind) {
	b.TransferLineTo(kind, r, 0, sim.Event{I0: uint64(kind)})
}

// request enqueues a request packet tagged with its kind.
func (r *recorder) request(b *Bus, kind Kind) {
	b.TransferRequestTo(kind, r, 0, sim.Event{I0: uint64(kind)})
}

func newBus() (*sim.Engine, *Bus, *recorder) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig()), &recorder{eng: eng}
}

func TestRequestAndLineTiming(t *testing.T) {
	eng, b, rec := newBus()
	rec.request(b, Demand)
	rec.line(b, Demand)
	eng.Run()
	if rec.at[0] != 4 {
		t.Errorf("request done at %d, want 4 (1 beat x 4 cycles)", rec.at[0])
	}
	if rec.at[1] != 4+32 {
		t.Errorf("line done at %d, want 36 (queued behind the request)", rec.at[1])
	}
	if b.LineCycles() != 32 {
		t.Errorf("LineCycles = %d", b.LineCycles())
	}
}

func TestBusSerializes(t *testing.T) {
	eng, b, rec := newBus()
	rec.line(b, Demand)
	rec.line(b, Demand)
	eng.Run()
	if rec.at[1] != rec.at[0]+32 {
		t.Errorf("second transfer done at %d, want %d", rec.at[1], rec.at[0]+32)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	eng, b, rec := newBus()
	// Occupy the bus, then enqueue three prefetches and one demand:
	// the demand must be granted before the waiting prefetches.
	rec.line(b, Demand)
	for i := 0; i < 3; i++ {
		rec.line(b, Prefetch)
	}
	eng.At(5, func() { rec.line(b, Demand) })
	eng.Run()
	if len(rec.tags) != 5 {
		t.Fatalf("completions = %d", len(rec.tags))
	}
	if Kind(rec.tags[1]) != Demand {
		t.Errorf("late demand transfer was not prioritized: %v", rec.tags)
	}
}

func TestWritebackYieldsToDemand(t *testing.T) {
	eng, b, rec := newBus()
	rec.line(b, Writeback)
	rec.line(b, Writeback)
	eng.At(1, func() { rec.line(b, Demand) })
	eng.Run()
	if Kind(rec.tags[1]) != Demand {
		t.Errorf("demand did not preempt queued writebacks: %v", rec.tags)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, b, rec := newBus()
	rec.line(b, Demand)
	rec.line(b, Prefetch)
	rec.request(b, Prefetch)
	rec.line(b, Writeback)
	eng.Run()
	st := b.Stats()
	if st.BusyCycles != 32+32+4+32 {
		t.Errorf("busy = %d", st.BusyCycles)
	}
	if st.PrefetchCycles != 32+4 {
		t.Errorf("prefetch busy = %d", st.PrefetchCycles)
	}
}

func TestBacklogDrains(t *testing.T) {
	eng, b, rec := newBus()
	for i := 0; i < 5; i++ {
		rec.line(b, Prefetch)
	}
	if b.Backlog() != 4 { // one granted immediately
		t.Errorf("backlog = %d, want 4", b.Backlog())
	}
	eng.Run()
	if b.Backlog() != 0 {
		t.Errorf("backlog after drain = %d", b.Backlog())
	}
}

func TestCompletionsNeverOverlapProperty(t *testing.T) {
	f := func(kinds []bool) bool {
		eng, b, rec := newBus()
		for _, pf := range kinds {
			k := Demand
			if pf {
				k = Prefetch
			}
			rec.line(b, k)
		}
		eng.Run()
		if len(rec.at) != len(kinds) {
			return false
		}
		// Sorted completion times must be exactly 32 cycles apart:
		// full serialization, no overlap, no gaps from time zero.
		for i := 1; i < len(rec.at); i++ {
			if rec.at[i]-rec.at[i-1] != 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBusyEqualsSumOfTransfersProperty(t *testing.T) {
	f := func(ops []bool) bool {
		eng, b, rec := newBus()
		var want sim.Cycle
		for _, line := range ops {
			if line {
				rec.line(b, Demand)
				want += 32
			} else {
				rec.request(b, Demand)
				want += 4
			}
		}
		eng.Run()
		return b.Stats().BusyCycles == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
