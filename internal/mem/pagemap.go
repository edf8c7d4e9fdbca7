package mem

// PageMapper translates the virtual addresses produced by a workload
// into simulated physical addresses. The ULMT observes physical line
// addresses (paper §3.4 "ULMTs operate on physical addresses"), so the
// quality of correlation prediction depends on the virtual-to-physical
// mapping being stable but not trivially linear.
//
// The mapper assigns physical frames to virtual pages on first touch,
// in a deterministic pseudo-random order seeded at construction. That
// mirrors a freshly booted OS handing out frames from a free list:
// consecutive virtual pages are usually not consecutive in physical
// memory, which is exactly the situation that defeats naive sequential
// prefetching at memory and motivates correlation prefetching.
type PageMapper struct {
	pageShift uint
	next      uint64
	perm      uint64 // multiplicative scramble constant (odd)
	linear    bool
	table     map[uint64]uint64
	used      map[uint64]struct{}
	// tlb is a direct-mapped translation cache in front of table:
	// Translate runs on every simulated access, and the map lookup it
	// avoids is measurable across a whole run. Entries mirror table
	// exactly (Remap invalidates), so hits return the same frame the
	// map would.
	tlb [tlbSize]tlbEntry
}

// tlbSize covers the resident footprint of the medium-scale workloads
// (tens of thousands of pages): at 1K entries the direct map thrashed
// and most translations still paid the map lookup. 384 KB of host
// memory per mapper buys back that cost.
const tlbSize = 16384 // direct-mapped, power of two

type tlbEntry struct {
	vpn, pfn uint64
	ok       bool
}

// PageSize4K is the page size used throughout the simulation.
const PageSize4K = 4096

// NewPageMapper returns a mapper with 4 KB pages. If linear is true,
// virtual pages map to identical physical pages (useful for tests and
// for workloads where OS-level scatter is irrelevant); otherwise frames
// are assigned first-touch from a scrambled sequence.
func NewPageMapper(linear bool, seed uint64) *PageMapper {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &PageMapper{
		pageShift: 12,
		perm:      seed | 1,
		linear:    linear,
		table:     make(map[uint64]uint64),
		used:      make(map[uint64]struct{}),
	}
}

// Translate maps a virtual byte address to a physical byte address,
// allocating a frame on first touch of the page.
func (m *PageMapper) Translate(v Addr) Addr {
	if m.linear {
		return v
	}
	vpn := uint64(v) >> m.pageShift
	off := uint64(v) & ((1 << m.pageShift) - 1)
	if e := &m.tlb[vpn&(tlbSize-1)]; e.ok && e.vpn == vpn {
		return Addr(e.pfn<<m.pageShift | off)
	}
	pfn, ok := m.table[vpn]
	if !ok {
		// First touch: hand out the next frame, scrambled so that
		// virtually adjacent pages land in different DRAM rows and
		// banks, like a real free list after some uptime.
		n := m.next
		m.next++
		pfn = mix64(n*m.perm) & ((1 << 36) - 1) // 48-bit phys space, 4K pages
		// mix64 is a bijection over 64 bits, but we truncate to 36
		// bits, so collisions are possible (if vanishingly rare at
		// our footprints); probe until the frame is free.
		for m.frameUsed(pfn) {
			n += 0x5bd1e995
			pfn = mix64(n*m.perm) & ((1 << 36) - 1)
		}
		m.table[vpn] = pfn
		m.used[pfn] = struct{}{}
	}
	m.tlb[vpn&(tlbSize-1)] = tlbEntry{vpn: vpn, pfn: pfn, ok: true}
	return Addr(pfn<<m.pageShift | off)
}

// Lookup translates without mutating the mapper: no frame allocation,
// no TLB fill. The second result is false when the page has never been
// touched (Translate would allocate a frame). Windowed core stretches
// use this: a stretch runs ahead of the engine clock, and Translate
// hands out frames in first-touch order, so a first touch from inside
// a stretch would move that order. Lookup only reads table and tlb,
// which change only between windows.
func (m *PageMapper) Lookup(v Addr) (Addr, bool) {
	if m.linear {
		return v, true
	}
	vpn := uint64(v) >> m.pageShift
	off := uint64(v) & ((1 << m.pageShift) - 1)
	if e := &m.tlb[vpn&(tlbSize-1)]; e.ok && e.vpn == vpn {
		return Addr(e.pfn<<m.pageShift | off), true
	}
	pfn, ok := m.table[vpn]
	if !ok {
		return 0, false
	}
	return Addr(pfn<<m.pageShift | off), true
}

func (m *PageMapper) frameUsed(pfn uint64) bool {
	_, ok := m.used[pfn]
	return ok
}

// Remap moves a virtual page to a fresh physical frame, returning the
// old and new physical page numbers. This models the OS page
// re-mapping event of paper §3.4, which the ULMT can be notified about
// so it can relocate correlation-table entries.
func (m *PageMapper) Remap(v Addr) (oldPFN, newPFN uint64) {
	vpn := uint64(v) >> m.pageShift
	old, ok := m.table[vpn]
	if !ok {
		m.Translate(v)
		return m.table[vpn], m.table[vpn]
	}
	delete(m.table, vpn)
	delete(m.used, old)
	m.tlb[vpn&(tlbSize-1)] = tlbEntry{} // stale translation must not serve
	m.Translate(Addr(vpn << m.pageShift))
	return old, m.table[vpn]
}

// MappedPages reports how many virtual pages have been touched, i.e.
// the resident footprint in pages.
func (m *PageMapper) MappedPages() int { return len(m.table) }

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// scramble used to scatter frame numbers.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
