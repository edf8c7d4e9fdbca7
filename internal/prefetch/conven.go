package prefetch

import (
	"fmt"

	"ulmt/internal/mem"
)

// Conven is the conventional processor-side hardware prefetcher of §4
// ("Processor-Side Prefetching"): it monitors L1 cache misses,
// recognizes up to NumSeq concurrent stride ±1 streams (in L1 lines),
// and prefetches the next NumPref lines of a stream into the L1.
// When the processor later misses on the address held in a stream's
// register, the prefetcher fetches the next NumPref lines and updates
// the register.
//
// It is hardware: it costs no ULMT time and its requests are tagged
// as prefetches on the bus (so a Non-Verbose ULMT never sees them).
type Conven struct {
	NumSeq  int
	NumPref int

	streams  []streamReg
	candUp   candTable
	candDown candTable
	winBuf   []mem.Line
	tick     uint64

	issued uint64
}

// NewConven builds the Table 4 Conven4 prefetcher when called with
// (4, 6).
func NewConven(numSeq, numPref int) (*Conven, error) {
	if numSeq < 1 || numPref < 1 {
		return nil, fmt.Errorf("prefetch: Conven needs NumSeq, NumPref >= 1, got (%d, %d)",
			numSeq, numPref)
	}
	return &Conven{
		NumSeq:   numSeq,
		NumPref:  numPref,
		streams:  make([]streamReg, numSeq),
		candUp:   candTable{gen: 1},
		candDown: candTable{gen: 1},
		winBuf:   make([]mem.Line, 0, numPref),
	}, nil
}

// Name identifies the configuration, e.g. "Conven4".
func (c *Conven) Name() string {
	if c.NumSeq == 4 {
		return "Conven4"
	}
	return "Conven"
}

// OnMiss consumes one L1 demand-miss line address and returns the L1
// lines to prefetch, in stream order. The returned slice is valid
// until the next call.
func (c *Conven) OnMiss(m mem.Line) []mem.Line {
	c.tick++
	// 1. Does the miss match (or land within the window of) an
	// active stream? Then slide the window forward.
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
	// 2. Otherwise run detection; the third miss in a sequence
	// triggers a stream.
	upAdv, upAlloc := c.extend(m, +1)
	if upAlloc {
		return c.window(m, +1)
	}
	downAdv, downAlloc := c.extend(m, -1)
	if downAlloc {
		return c.window(m, -1)
	}
	if !upAdv && !downAdv {
		c.candUp.set(m+1, 1)
		c.candDown.set(m-1, 1)
		c.trim()
	}
	return nil
}

func (c *Conven) window(m mem.Line, stride int64) []mem.Line {
	// The contract says "valid until the next call", so one buffer is
	// reused for every window — OnMiss runs once per L1 miss and this
	// allocation was visible in whole-run profiles.
	out := c.winBuf[:0]
	for k := 1; k <= c.NumPref; k++ {
		out = append(out, mem.Line(int64(m)+int64(k)*stride))
	}
	c.issued += uint64(len(out))
	c.winBuf = out
	return out
}

// extend advances a detection run ending at m. advanced reports that
// m continued an existing run (so no fresh run should be seeded);
// allocated that the run reached three misses and became a stream.
func (c *Conven) extend(m mem.Line, stride int64) (advanced, allocated bool) {
	cand := &c.candUp
	if stride < 0 {
		cand = &c.candDown
	}
	i := cand.find(m)
	if i < 0 {
		return false, false
	}
	run := cand.slot[i].run + 1
	cand.del(i)
	if run >= 3 {
		c.allocate(mem.Line(int64(m)+stride), stride)
		return true, true
	}
	cand.set(mem.Line(int64(m)+stride), run)
	return true, false
}

func (c *Conven) allocate(expected mem.Line, stride int64) {
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

// maxCand bounds each candidate table; crossing it wipes the table.
const maxCand = 64

func (c *Conven) trim() {
	if c.candUp.n > maxCand {
		c.candUp.wipe()
	}
	if c.candDown.n > maxCand {
		c.candDown.wipe()
	}
}

// candTable maps a line to the length of the detection run expecting
// it next. A seed adds at most one entry and trim wipes past maxCand,
// so it never holds more than maxCand+1 lines: a fixed open-addressing
// table at candSlots >= 4*(maxCand+1) keeps linear probes short and
// never resizes. A slot is live only while it carries the table's
// current generation, so a wipe is one increment, not a clear.
type candTable struct {
	slot [candSlots]candEntry
	gen  uint32 // live entries carry this; never 0 (see wipe)
	n    int    // live entries
}

type candEntry struct {
	line mem.Line
	run  uint32
	gen  uint32
}

const (
	candBits  = 9
	candSlots = 1 << candBits
	candMask  = candSlots - 1
)

// candHome is l's first probe slot. Stream candidates are runs of
// adjacent lines, so a Fibonacci multiply scatters them before the
// top candBits are taken; an identity hash would pack them into one
// long probe cluster.
func candHome(l mem.Line) int { return int(uint64(l) * 0x9e3779b97f4a7c15 >> (64 - candBits)) }

// find returns the slot holding l, or -1.
func (t *candTable) find(l mem.Line) int {
	for i := candHome(l); ; i = (i + 1) & candMask {
		e := &t.slot[i]
		if e.gen != t.gen {
			return -1
		}
		if e.line == l {
			return i
		}
	}
}

// set maps l to run, overwriting any entry l already has.
func (t *candTable) set(l mem.Line, run uint32) {
	i := candHome(l)
	for ; ; i = (i + 1) & candMask {
		e := &t.slot[i]
		if e.gen != t.gen {
			break
		}
		if e.line == l {
			e.run = run
			return
		}
	}
	t.slot[i] = candEntry{line: l, run: run, gen: t.gen}
	t.n++
}

// del empties slot i, then shifts later members of its probe cluster
// back into the hole wherever that keeps them reachable from their
// home slot, so find never stops early at a stale gap.
func (t *candTable) del(i int) {
	t.n--
	for j := (i + 1) & candMask; t.slot[j].gen == t.gen; j = (j + 1) & candMask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-candHome(t.slot[j].line))&candMask >= (j-i)&candMask {
			t.slot[i] = t.slot[j]
			i = j
		}
	}
	t.slot[i].gen = 0
}

// wipe empties the table by retiring its generation. When the
// generation wraps to 0, which marks dead slots, every slot is zeroed
// and the generations restart at 1.
func (t *candTable) wipe() {
	t.n = 0
	if t.gen++; t.gen == 0 {
		t.slot = [candSlots]candEntry{}
		t.gen = 1
	}
}

// Issued reports the total prefetch lines requested.
func (c *Conven) Issued() uint64 { return c.issued }
