// Package cache implements the set-associative write-back caches of
// the simulated machine: the main processor's L1 and L2 and the
// memory processor's L1 (paper Table 3).
//
// The cache is a pure state machine — it owns tags, LRU state, MSHRs,
// and the write-back queue, but no timing. The system model drives it
// and converts its answers into latencies. That separation lets the
// same implementation serve three different caches and makes the
// structural behavior unit-testable without a running simulation.
//
// Beyond a textbook cache, it implements the L2-side support the
// paper requires for push prefetching (§2.1):
//
//   - accepting lines the cache never requested, using a free MSHR;
//   - letting an arriving prefetched line "steal" the MSHR of a
//     pending demand miss to the same address and complete it;
//   - dropping an arriving prefetched line when the line is already
//     present, when it is sitting in the write-back queue, when all
//     MSHRs are busy, or when every line in the target set is in
//     transaction-pending state.
package cache

import (
	"fmt"
	"math/bits"

	"ulmt/internal/mem"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Assoc     int
	Line      mem.LineSize
	// MSHRs bounds outstanding misses (paper: "Pending ld, st: 8, 16"
	// at the processor; the L2 uses its MSHR file for both demand
	// misses and incoming pushes).
	MSHRs int
	// WBQDepth bounds the write-back queue.
	WBQDepth int
}

// Validate checks the geometry is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: size and associativity must be positive")
	}
	lineBytes := int(1) << c.Line.Shift()
	if c.SizeBytes%(lineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*line %d", c.SizeBytes, lineBytes*c.Assoc)
	}
	sets := c.SizeBytes / (lineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache: need at least one MSHR")
	}
	if c.MSHRs > 64 {
		// The MSHR file is tracked by a 64-bit occupancy bitmap; real
		// miss files are far smaller (the paper's are 4-16 entries).
		return fmt.Errorf("cache: at most 64 MSHRs supported, got %d", c.MSHRs)
	}
	return nil
}

// Per-way state is fully decomposed into flat arrays indexed
// set*assoc+way: the tag and LRU tick every lookup scans live in
// c.tags and c.lru (one cache line of tags per set walk), and the
// state only read once a lookup has resolved is a one-byte flag word
// in c.flags. The earlier layout kept a parallel slice-of-slices of
// way structs for the resolved-path fields; the per-set slice-header
// loads and 24-byte struct writes showed up in whole-run profiles of
// Fill.
const (
	wayValid    = 1 << 0
	wayDirty    = 1 << 1
	wayPrefetch = 1 << 2 // brought by a prefetch and not yet referenced
)

// invalidTag marks an empty way in the packed tag array. Real tags
// are line numbers (byte addresses shifted right), so they can never
// reach the all-ones value; Fill guards the impossible collision.
const invalidTag = ^uint64(0)

// MSHR tracks one outstanding miss (or push) on this cache.
type MSHR struct {
	Line     mem.Line
	valid    bool
	Prefetch bool // allocated for a prefetch (processor-side or push)
}

// Stats counts structural cache events.
type Stats struct {
	Accesses             uint64
	Misses               uint64
	PrefetchHits         uint64 // demand hits on not-yet-referenced prefetched lines
	Evictions            uint64
	DirtyEvicts          uint64
	PrefetchEvictsUnused uint64 // "Replaced" in Fig 9 terms
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg     Config
	setMask uint64
	// tags, lru, flags are the per-way state as flat arrays indexed
	// set*assoc+way; see the way* flag constants. An empty way holds
	// invalidTag, so the scans need no separate valid check.
	tags  []uint64
	lru   []uint64
	flags []uint8
	mshrs []MSHR
	// mshrBusy mirrors the valid bits of mshrs as a bitmap (bit i =
	// entry i), so the per-miss lookup/alloc scans only occupied
	// entries instead of walking the whole file.
	mshrBusy uint64
	wbq      []mem.Line
	wbqHead  int
	wbqLen   int
	tick     uint64
	st       Stats
}

// New builds an empty cache, or reports why the geometry is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lineBytes := 1 << cfg.Line.Shift()
	nsets := cfg.SizeBytes / (lineBytes * cfg.Assoc)
	c := &Cache{cfg: cfg, setMask: uint64(nsets - 1)}
	c.tags = make([]uint64, nsets*cfg.Assoc)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.lru = make([]uint64, nsets*cfg.Assoc)
	c.flags = make([]uint8, nsets*cfg.Assoc)
	c.mshrs = make([]MSHR, cfg.MSHRs)
	// The write-back queue is a ring over a fixed backing array of
	// WBQDepth slots: draining advances a head index, never shifts.
	c.wbq = make([]mem.Line, cfg.WBQDepth)
	return c, nil
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Fingerprint hashes the resident lines and their dirty bits into one
// value, ignoring LRU ticks and diagnostic counters. Two caches
// holding the same lines in the same state fingerprint equal, so runs
// can compare final contents without exposing the internals.
func (c *Cache) Fingerprint() uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for i, fl := range c.flags {
		if fl&wayValid == 0 {
			continue
		}
		x := c.tags[i] * 0x9e3779b97f4a7c15
		x ^= uint64(i/c.cfg.Assoc) * 0xbf58476d1ce4e5b9
		if fl&wayDirty != 0 {
			x ^= 0xd6e8feb86659fd93
		}
		// XOR-fold so way position and iteration order don't
		// matter, only the resident set.
		h ^= x * prime
	}
	return h
}

func (c *Cache) setIndex(l mem.Line) uint64 { return uint64(l) & c.setMask }

// LookupResult describes the outcome of a demand access.
type LookupResult struct {
	Hit bool
	// FirstPrefetchTouch is true when the hit line was installed by a
	// prefetch and this is its first demand reference — the event
	// Fig 9 counts as a prefetch Hit.
	FirstPrefetchTouch bool
}

// Access performs a demand read or write lookup, updating LRU and the
// dirty bit. It does not allocate on miss; the caller decides what a
// miss means (MSHR merge, new request, etc.).
func (c *Cache) Access(l mem.Line, write bool) LookupResult {
	c.tick++
	c.st.Accesses++
	si := c.setIndex(l)
	base := int(si) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	tag := uint64(l)
	for i, t := range tags {
		if t == tag {
			c.lru[base+i] = c.tick
			f := &c.flags[base+i]
			if write {
				*f |= wayDirty
			}
			res := LookupResult{Hit: true}
			if *f&wayPrefetch != 0 {
				*f &^= wayPrefetch
				c.st.PrefetchHits++
				res.FirstPrefetchTouch = true
			}
			return res
		}
	}
	c.st.Misses++
	return LookupResult{}
}

// Probe is Access's hit path behind a presence test, in one tag walk:
// if the line is resident it applies exactly the demand-hit effects
// (access count, LRU touch, dirty bit, first-prefetch-touch
// accounting) and reports ok; if not, it touches nothing — no access
// or miss is counted — so the caller can fall back to a path whose
// Access performs the one canonical miss accounting. It exists for
// the multi-core machine's windowed stretches, where
// Contains-then-Access would walk the set twice per retired op.
func (c *Cache) Probe(l mem.Line, write bool) (LookupResult, bool) {
	si := c.setIndex(l)
	base := int(si) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	tag := uint64(l)
	for i := range tags {
		if tags[i] == tag {
			c.tick++
			c.st.Accesses++
			c.lru[base+i] = c.tick
			f := &c.flags[base+i]
			if write {
				*f |= wayDirty
			}
			res := LookupResult{Hit: true}
			if *f&wayPrefetch != 0 {
				*f &^= wayPrefetch
				c.st.PrefetchHits++
				res.FirstPrefetchTouch = true
			}
			return res, true
		}
	}
	return LookupResult{}, false
}

// Contains reports presence without touching LRU or stats.
func (c *Cache) Contains(l mem.Line) bool {
	base := int(c.setIndex(l)) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	tag := uint64(l)
	for i := range tags {
		if tags[i] == tag {
			return true
		}
	}
	return false
}

// EvictInfo describes the line displaced by a fill.
type EvictInfo struct {
	Valid bool
	Line  mem.Line
	Dirty bool
}

// Fill installs line l, evicting the LRU way if needed. Dirty victims
// are pushed to the write-back queue; if the queue is full the victim
// is still reported so the caller can spill it synchronously.
func (c *Cache) Fill(l mem.Line, dirty, prefetched bool) EvictInfo {
	c.tick++
	si := c.setIndex(l)
	base := int(si) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	lrus := c.lru[base : base+c.cfg.Assoc]
	tag := uint64(l)
	if tag == invalidTag {
		panic("cache: line collides with the invalid-tag sentinel")
	}
	// One walk does residency check and victim selection together: an
	// invalid way (the last one, matching the historical choice) wins,
	// else the least recently used way (first minimum on ties).
	victim, lru := -1, -1
	oldest := uint64(1<<64 - 1)
	for i, t := range tags {
		if t == invalidTag {
			victim = i
			continue
		}
		if t == tag {
			// Refill of a resident line: merge flags.
			if dirty {
				c.flags[base+i] |= wayDirty
			}
			return EvictInfo{}
		}
		if u := lrus[i]; u < oldest {
			oldest = u
			lru = i
		}
	}
	if victim < 0 {
		victim = lru
	}
	var ev EvictInfo
	if fl := c.flags[base+victim]; fl&wayValid != 0 {
		old := mem.Line(tags[victim])
		ev = EvictInfo{Valid: true, Line: old, Dirty: fl&wayDirty != 0}
		c.st.Evictions++
		if fl&wayDirty != 0 {
			c.st.DirtyEvicts++
			if c.wbqLen < c.cfg.WBQDepth {
				c.wbq[(c.wbqHead+c.wbqLen)%c.cfg.WBQDepth] = old
				c.wbqLen++
			}
		}
		if fl&wayPrefetch != 0 {
			c.st.PrefetchEvictsUnused++
		}
	}
	fl := uint8(wayValid)
	if dirty {
		fl |= wayDirty
	}
	if prefetched {
		fl |= wayPrefetch
	}
	c.flags[base+victim] = fl
	tags[victim] = tag
	lrus[victim] = c.tick
	return ev
}

// Invalidate drops a line if present, returning whether it was dirty.
func (c *Cache) Invalidate(l mem.Line) (wasDirty, present bool) {
	si := c.setIndex(l)
	base := int(si) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	tag := uint64(l)
	for i := range tags {
		if tags[i] == tag {
			d := c.flags[base+i]&wayDirty != 0
			c.flags[base+i] = 0
			tags[i] = invalidTag
			return d, true
		}
	}
	return false, false
}

// --- MSHR file ---

// MSHRFor returns the index of the MSHR tracking line l, or -1.
func (c *Cache) MSHRFor(l mem.Line) int {
	for m := c.mshrBusy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.mshrs[i].Line == l {
			return i
		}
	}
	return -1
}

// AllocMSHR reserves an MSHR for line l. ok is false when the file is
// full. Allocating a second MSHR for the same line is a programming
// error (callers must merge via MSHRFor first).
func (c *Cache) AllocMSHR(l mem.Line, prefetch bool) (id int, ok bool) {
	if c.MSHRFor(l) >= 0 {
		panic("cache: duplicate MSHR allocation")
	}
	if free := ^c.mshrBusy; free != 0 {
		if i := bits.TrailingZeros64(free); i < len(c.mshrs) {
			c.mshrs[i] = MSHR{Line: l, valid: true, Prefetch: prefetch}
			c.mshrBusy |= 1 << uint(i)
			return i, true
		}
	}
	return -1, false
}

// StealMSHR converts the MSHR of a pending demand miss into a
// prefetch-satisfied one: the arriving pushed line "simply steals the
// MSHR and updates the cache as if it were the reply" (§2.1). The
// caller completes the demand miss with the push's data.
func (c *Cache) StealMSHR(id int) {
	if !c.mshrs[id].valid {
		panic("cache: stealing free MSHR")
	}
	c.mshrs[id].valid = false
	c.mshrBusy &^= 1 << uint(id)
}

// FreeMSHR releases an entry when its fill completes.
func (c *Cache) FreeMSHR(id int) {
	if !c.mshrs[id].valid {
		panic("cache: double free of MSHR")
	}
	c.mshrs[id].valid = false
	c.mshrBusy &^= 1 << uint(id)
}

// FreeMSHRs counts available entries.
func (c *Cache) FreeMSHRs() int {
	return len(c.mshrs) - bits.OnesCount64(c.mshrBusy)
}

// PendingInSet counts outstanding MSHRs whose line maps to the same
// set as l — the model for "all the lines in the set where the
// prefetched line wants to go are in transaction-pending state".
func (c *Cache) PendingInSet(l mem.Line) int {
	si := c.setIndex(l)
	n := 0
	for m := c.mshrBusy; m != 0; m &= m - 1 {
		if c.setIndex(c.mshrs[bits.TrailingZeros64(m)].Line) == si {
			n++
		}
	}
	return n
}

// --- Write-back queue ---

// WBContains reports whether line l is waiting to be written back.
func (c *Cache) WBContains(l mem.Line) bool {
	for i := 0; i < c.wbqLen; i++ {
		if c.wbq[(c.wbqHead+i)%c.cfg.WBQDepth] == l {
			return true
		}
	}
	return false
}

// PopWB removes the oldest pending write-back.
func (c *Cache) PopWB() (l mem.Line, ok bool) {
	if c.wbqLen == 0 {
		return 0, false
	}
	l = c.wbq[c.wbqHead]
	c.wbqHead = (c.wbqHead + 1) % c.cfg.WBQDepth
	c.wbqLen--
	return l, true
}

// WBLen reports the write-back queue depth in use.
func (c *Cache) WBLen() int { return c.wbqLen }

// --- Push acceptance (§2.1) ---

// PushOutcome says what happened to a pushed (unsolicited) line
// arriving at this cache.
type PushOutcome int

const (
	// PushAccepted: the line was installed using a free MSHR slot.
	PushAccepted PushOutcome = iota
	// PushStolenMSHR: a demand miss for the line was pending; the
	// push completes it (the caller must finish that miss).
	PushStolenMSHR
	// PushDropRedundant: the cache already has the line.
	PushDropRedundant
	// PushDropWriteback: the write-back queue holds the line.
	PushDropWriteback
	// PushDropNoMSHR: all MSHRs are busy.
	PushDropNoMSHR
	// PushDropPendingSet: every line in the target set is transaction
	// pending.
	PushDropPendingSet
)

// String names the outcome for logs and test failures.
func (o PushOutcome) String() string {
	switch o {
	case PushAccepted:
		return "accepted"
	case PushStolenMSHR:
		return "stole-mshr"
	case PushDropRedundant:
		return "drop-redundant"
	case PushDropWriteback:
		return "drop-writeback"
	case PushDropNoMSHR:
		return "drop-no-mshr"
	case PushDropPendingSet:
		return "drop-pending-set"
	}
	return "unknown"
}

// AcceptPush applies the paper's acceptance rules to an arriving
// pushed line. On PushStolenMSHR it returns the stolen MSHR's index
// so the caller can complete the pending demand miss; the line is
// installed (not marked prefetch, since a demand wanted it). On
// PushAccepted the line is installed marked as an unreferenced
// prefetch. All other outcomes leave the cache unchanged.
func (c *Cache) AcceptPush(l mem.Line) (PushOutcome, int) {
	if id := c.MSHRFor(l); id >= 0 {
		if c.mshrs[id].Prefetch {
			// A prefetch for the same line is already outstanding on
			// this cache; the push is redundant with it.
			return PushDropRedundant, -1
		}
		c.StealMSHR(id)
		c.Fill(l, false, false)
		return PushStolenMSHR, id
	}
	if c.Contains(l) {
		return PushDropRedundant, -1
	}
	if c.WBContains(l) {
		return PushDropWriteback, -1
	}
	if c.FreeMSHRs() == 0 {
		return PushDropNoMSHR, -1
	}
	if c.PendingInSet(l) >= c.cfg.Assoc {
		return PushDropPendingSet, -1
	}
	c.Fill(l, false, true)
	return PushAccepted, -1
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.st }
