package prefetch

import (
	"slices"
	"testing"

	"ulmt/internal/mem"
)

// refConven is the reference Conven's candidate table is checked
// against: the prefetcher as it was before the fixed table, tracking
// detection runs in two Go maps. Only the candidate tracking differs
// from Conven; stream registers and windows are the same code. It
// lives only in test code.
type refConven struct {
	NumSeq, NumPref int

	streams  []streamReg
	candUp   map[mem.Line]int
	candDown map[mem.Line]int
	tick     uint64
	issued   uint64
}

func newRefConven(numSeq, numPref int) *refConven {
	return &refConven{
		NumSeq:   numSeq,
		NumPref:  numPref,
		streams:  make([]streamReg, numSeq),
		candUp:   make(map[mem.Line]int),
		candDown: make(map[mem.Line]int),
	}
}

func (c *refConven) OnMiss(m mem.Line) []mem.Line {
	c.tick++
	for i := range c.streams {
		r := &c.streams[i]
		if !r.valid {
			continue
		}
		d := (int64(m) - int64(r.expected)) * r.stride
		if d < 0 || d >= int64(c.NumPref) {
			continue
		}
		r.expected = mem.Line(int64(m) + r.stride)
		r.lru = c.tick
		return c.window(m, r.stride)
	}
	upAdv, upAlloc := c.extend(m, +1)
	if upAlloc {
		return c.window(m, +1)
	}
	downAdv, downAlloc := c.extend(m, -1)
	if downAlloc {
		return c.window(m, -1)
	}
	if !upAdv && !downAdv {
		c.candUp[m+1] = 1
		c.candDown[m-1] = 1
		if len(c.candUp) > maxCand {
			clear(c.candUp)
		}
		if len(c.candDown) > maxCand {
			clear(c.candDown)
		}
	}
	return nil
}

func (c *refConven) window(m mem.Line, stride int64) []mem.Line {
	var out []mem.Line
	for k := 1; k <= c.NumPref; k++ {
		out = append(out, mem.Line(int64(m)+int64(k)*stride))
	}
	c.issued += uint64(len(out))
	return out
}

func (c *refConven) extend(m mem.Line, stride int64) (advanced, allocated bool) {
	cand := c.candUp
	if stride < 0 {
		cand = c.candDown
	}
	run, ok := cand[m]
	if !ok {
		return false, false
	}
	delete(cand, m)
	run++
	if run >= 3 {
		c.allocate(mem.Line(int64(m)+stride), stride)
		return true, true
	}
	cand[mem.Line(int64(m)+stride)] = run
	return true, false
}

func (c *refConven) allocate(expected mem.Line, stride int64) {
	victim, oldest := 0, uint64(1<<64-1)
	for i := range c.streams {
		r := &c.streams[i]
		if !r.valid {
			victim, oldest = i, 0
			continue
		}
		if r.lru < oldest {
			oldest = r.lru
			victim = i
		}
	}
	c.streams[victim] = streamReg{valid: true, expected: expected, stride: stride, lru: c.tick}
}

// convenMisses is a random L1 miss stream that stresses the candidate
// table: interleaved ±1 runs that reach the three-miss trigger or
// break off early, exact repeats, short jumps back into live runs,
// runs across line 0, and enough scattered lines to wipe both tables
// many times over.
func convenMisses(seed uint64, n int) []mem.Line {
	rng := seed
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var heads [6]mem.Line
	var dirs [6]int64
	for i := range heads {
		heads[i] = mem.Line(next() % 4096)
		dirs[i] = 1 - 2*int64(next()%2)
	}
	out := make([]mem.Line, 0, n)
	for len(out) < n {
		switch r := next() % 16; {
		case r < 8: // advance a run by its stride, maybe skipping a line
			k := next() % uint64(len(heads))
			heads[k] = mem.Line(int64(heads[k]) + dirs[k]*int64(1+next()%2*(next()%3)))
			out = append(out, heads[k])
		case r < 10: // repeat a recent miss
			if len(out) > 0 {
				out = append(out, out[len(out)-1-int(next()%uint64(min(len(out), 8)))])
			}
		case r < 11: // restart a run somewhere new, possibly near line 0
			k := next() % uint64(len(heads))
			heads[k] = mem.Line(next() % 8192)
			if next()%8 == 0 {
				heads[k] = mem.Line(next() % 3)
			}
			dirs[k] = 1 - 2*int64(next()%2)
			out = append(out, heads[k])
		default: // a scattered line that seeds fresh candidates
			out = append(out, mem.Line(next()%(1<<20)))
		}
	}
	return out
}

// TestConvenMatchesMapReference diffs Conven against the map-based
// reference over random miss streams: every OnMiss must return the
// same lines in the same order, and the issued counts must agree.
func TestConvenMatchesMapReference(t *testing.T) {
	for _, geom := range []struct{ seq, pref int }{{4, 6}, {1, 2}, {2, 4}, {8, 1}} {
		for seed := uint64(1); seed <= 6; seed++ {
			c, ref := mustConven(geom.seq, geom.pref), newRefConven(geom.seq, geom.pref)
			wipes := 0
			for i, m := range convenMisses(seed, 20000) {
				before := len(ref.candUp)
				got, want := c.OnMiss(m), ref.OnMiss(m)
				if len(ref.candUp) < before-1 {
					wipes++
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Conven(%d,%d) seed %d miss %d (line %d): got %v, want %v",
						geom.seq, geom.pref, seed, i, m, got, want)
				}
				if c.candUp.n != len(ref.candUp) || c.candDown.n != len(ref.candDown) {
					t.Fatalf("Conven(%d,%d) seed %d miss %d: table sizes %d/%d, reference %d/%d",
						geom.seq, geom.pref, seed, i, c.candUp.n, c.candDown.n,
						len(ref.candUp), len(ref.candDown))
				}
			}
			if c.Issued() != ref.issued || c.Issued() == 0 {
				t.Fatalf("Conven(%d,%d) seed %d: issued %d, reference %d",
					geom.seq, geom.pref, seed, c.Issued(), ref.issued)
			}
			if wipes < 10 {
				t.Fatalf("Conven(%d,%d) seed %d: stream wiped the tables only %d times",
					geom.seq, geom.pref, seed, wipes)
			}
		}
	}
}

// TestConvenCandTableExact checks the table on its own against a map:
// random sets, overwrites and deletes over a key range small enough to
// collide, including deletes that must shift a probe cluster back, and
// the same wipe past maxCand entries that Conven applies.
func TestConvenCandTableExact(t *testing.T) {
	tab := candTable{gen: 1}
	ref := map[mem.Line]uint32{}
	rng := uint64(7)
	for i := 0; i < 200000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		l := mem.Line(rng >> 54) // 1024 distinct lines
		if rng>>32&3 == 0 {
			if s := tab.find(l); s >= 0 {
				tab.del(s)
			}
			delete(ref, l)
		} else {
			tab.set(l, uint32(i))
			ref[l] = uint32(i)
			if len(ref) > maxCand {
				tab.wipe()
				clear(ref)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d, map %d", i, tab.n, len(ref))
		}
		run, ok := ref[l]
		if s := tab.find(l); (s >= 0) != ok || (ok && tab.slot[s].run != run) {
			t.Fatalf("op %d: line %d disagrees with the map", i, l)
		}
	}
	for l, run := range ref {
		if s := tab.find(l); s < 0 || tab.slot[s].run != run {
			t.Fatalf("line %d lost (slot %d)", l, s)
		}
	}
}

// TestZeroAllocConvenOnMiss is the allocation gate for the stream
// detector: once warmed, OnMiss allocates nothing, whether a miss
// extends a stream, advances or seeds a candidate run, or wipes a
// table. One measured run covers the whole stream, so a single
// allocation anywhere in it fails the gate (AllocsPerRun truncates
// its per-run average).
func TestZeroAllocConvenOnMiss(t *testing.T) {
	misses := convenMisses(3, 4096)
	c := mustConven(4, 6)
	allocs := testing.AllocsPerRun(1, func() {
		for _, m := range misses {
			c.OnMiss(m)
		}
	})
	if allocs != 0 {
		t.Fatalf("Conven.OnMiss allocated %.0f times over %d misses, want 0", allocs, len(misses))
	}
}
