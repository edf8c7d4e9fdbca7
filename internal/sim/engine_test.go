package sim

import (
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 2) })
	e.At(5, func() { got = append(got, 1) })
	e.At(10, func() { got = append(got, 3) }) // same cycle: FIFO by schedule order
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %d, want 10", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", e.Fired())
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Cycle = -1
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("After fired at %d, want 150", at)
	}
}

func TestEngineSameCycleCascade(t *testing.T) {
	// Events scheduled with zero delay from within an event run in
	// the same cycle, after already-queued same-cycle events.
	e := NewEngine()
	var got []string
	e.At(1, func() {
		got = append(got, "a")
		e.After(0, func() { got = append(got, "c") })
	})
	e.At(1, func() { got = append(got, "b") })
	e.Run()
	want := "abc"
	s := ""
	for _, g := range got {
		s += g
	}
	if s != want {
		t.Errorf("cascade order %q, want %q", s, want)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.RunUntil(15)
	if fired != 1 {
		t.Errorf("fired %d events by cycle 15, want 1", fired)
	}
	if e.Now() != 15 {
		t.Errorf("Now = %d, want 15", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 || e.Now() != 20 {
		t.Errorf("after Run: fired=%d now=%d", fired, e.Now())
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue should report false")
	}
	e.At(3, func() {})
	if !e.Step() {
		t.Error("Step should fire the queued event")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var got []int
		for i := 0; i < 100; i++ {
			i := i
			e.At(Cycle(i%7), func() { got = append(got, i) })
		}
		e.Run()
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineNextAt(t *testing.T) {
	for _, q := range []struct {
		name string
		e    queue
	}{{"wheel", NewEngine()}, {"heap", &heapEngine{}}} {
		e := q.e
		if _, ok := e.NextAt(); ok {
			t.Errorf("%s: NextAt on empty queue reported an event", q.name)
		}
		e.At(40, func() {})
		e.At(7, func() {})
		if at, ok := e.NextAt(); !ok || at != 7 {
			t.Errorf("%s: NextAt = %d,%v, want 7,true", q.name, at, ok)
		}
		e.Step()
		if at, ok := e.NextAt(); !ok || at != 40 {
			t.Errorf("%s: NextAt after Step = %d,%v, want 40,true", q.name, at, ok)
		}
	}
}

func TestEngineManyEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 10000 {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if count != 10000 {
		t.Errorf("count = %d", count)
	}
	if e.Now() != 9999 {
		t.Errorf("Now = %d, want 9999", e.Now())
	}
}
