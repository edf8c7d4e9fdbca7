package memproc

import (
	"testing"

	"ulmt/internal/mem"
)

func newMP(loc Location) *MemProc {
	return mustNew(DefaultConfig(loc), mustDRAM())
}

func TestInstrCharging(t *testing.T) {
	mp := newMP(InDRAM)
	s := mp.Begin(0)
	s.Instr(10)
	if s.Elapsed() != 10 {
		t.Errorf("10 instructions at peak = %d cycles, want 10", s.Elapsed())
	}
}

func TestTouchMissThenHit(t *testing.T) {
	mp := newMP(InDRAM)
	s := mp.Begin(0)
	s.Touch(0x1000, 4, false)
	miss := s.Elapsed()
	if miss < 21 {
		t.Errorf("cold touch took %d cycles, want >= row-hit RT 21", miss)
	}
	s2 := mp.Begin(1000)
	s2.Touch(0x1000, 4, false)
	if s2.Elapsed() != mp.Config().CacheHitCycles {
		t.Errorf("warm touch took %d, want %d", s2.Elapsed(), mp.Config().CacheHitCycles)
	}
	if mp.Stats().CacheMisses != 1 || mp.Stats().MemAccesses != 2 {
		t.Errorf("stats = %+v", mp.Stats())
	}
}

func TestTouchSpansLines(t *testing.T) {
	mp := newMP(InDRAM)
	s := mp.Begin(0)
	// 64 bytes starting at a 32B boundary = two memproc lines.
	s.Touch(0x2000, 64, false)
	if mp.Stats().MemAccesses != 2 {
		t.Errorf("accesses = %d, want 2", mp.Stats().MemAccesses)
	}
}

func TestBurstCheaperThanSecondMiss(t *testing.T) {
	mp := newMP(InDRAM)
	s := mp.Begin(0)
	// Two adjacent 32B lines in one 64B DRAM line: the second is a
	// burst continuation.
	s.Touch(0x3000, 4, false)
	first := s.Elapsed()
	s.Touch(0x3020, 4, false)
	second := s.Elapsed() - first
	if second != mp.Config().BurstCycles {
		t.Errorf("burst continuation cost %d, want %d", second, mp.Config().BurstCycles)
	}
}

func TestNorthBridgeSlower(t *testing.T) {
	a := newMP(InDRAM)
	b := newMP(InNorthBridge)
	sa := a.Begin(0)
	sb := b.Begin(0)
	sa.Touch(0x5000, 4, false)
	sb.Touch(0x5000, 4, false)
	if sb.Elapsed() <= sa.Elapsed() {
		t.Errorf("NB touch (%d) must cost more than in-DRAM (%d)", sb.Elapsed(), sa.Elapsed())
	}
	if a.Config().PrefetchToDRAM != 0 || b.Config().PrefetchToDRAM != 25 {
		t.Error("prefetch issue delays wrong")
	}
	if InDRAM.String() != "DRAM" || InNorthBridge.String() != "NorthBridge" {
		t.Error("location strings wrong")
	}
}

func TestResponseOccupancySplit(t *testing.T) {
	mp := newMP(InDRAM)
	s := mp.Begin(0)
	s.Instr(10)
	s.MarkResponse()
	s.Instr(20)
	if s.Response() != 10 {
		t.Errorf("response = %d, want 10", s.Response())
	}
	if s.Elapsed() != 30 {
		t.Errorf("elapsed = %d, want 30", s.Elapsed())
	}
	// Second mark keeps the first snapshot.
	s.MarkResponse()
	if s.Response() != 10 {
		t.Error("second MarkResponse overwrote the snapshot")
	}
	mp.Finish(s)
	st := mp.Stats()
	if st.MissesProcessed != 1 || st.ResponseBusy != 10 || st.OccupancyBusy != 30 {
		t.Errorf("stats = %+v", st)
	}
	if st.Instructions != 30 {
		t.Errorf("instructions = %d", st.Instructions)
	}
}

func TestFinishWithoutMark(t *testing.T) {
	mp := newMP(InDRAM)
	s := mp.Begin(0)
	s.Instr(5)
	mp.Finish(s) // must auto-mark: response == occupancy
	st := mp.Stats()
	if st.ResponseBusy != 5 || st.OccupancyBusy != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDropObservation(t *testing.T) {
	mp := newMP(InDRAM)
	mp.DropObservation()
	mp.DropObservation()
	if mp.Stats().MissesDropped != 2 {
		t.Errorf("dropped = %d", mp.Stats().MissesDropped)
	}
}

func TestSharedDRAMContention(t *testing.T) {
	// The memproc and another agent share banks: a bank busy from
	// the other agent delays the memproc's miss.
	d := mustDRAM()
	mp := mustNew(DefaultConfig(InDRAM), d)
	line := mem.Line(0x4000 >> 6)
	d.Access(100, line) // other agent occupies the bank
	s := mp.Begin(100)
	s.Touch(0x4000, 4, false)
	if s.Elapsed() <= mp.Config().RowHitRT {
		t.Errorf("contended touch took %d, should include bank wait", s.Elapsed())
	}
}
