package mem

import (
	"sort"

	"ulmt/internal/checkpoint"
)

// Snapshot serializes the mapper's first-touch state: the allocation
// cursor, the virtual→physical table, and the set of frames in use.
// The used set is written independently of the table because Remap
// retires frames from it without unmapping pages. Maps are emitted in
// sorted key order so identical mapper states produce identical
// checkpoint bytes. The TLB is a host-side cache that mirrors the
// table exactly and is rebuilt on demand, so it is not serialized.
func (m *PageMapper) Snapshot(w *checkpoint.Writer) {
	w.Tag("pagemap")
	w.U64(m.next)
	w.Int(len(m.table))
	vpns := make([]uint64, 0, len(m.table))
	for vpn := range m.table {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		w.U64(vpn)
		w.U64(m.table[vpn])
	}
	w.Int(len(m.used))
	pfns := make([]uint64, 0, len(m.used))
	for pfn := range m.used {
		pfns = append(pfns, pfn)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
	for _, pfn := range pfns {
		w.U64(pfn)
	}
}

// Restore rebuilds the mapper state captured by Snapshot and clears
// the TLB; subsequent translations refill it from the restored table.
func (m *PageMapper) Restore(r *checkpoint.Reader) {
	r.Tag("pagemap")
	m.next = r.U64()
	n := r.Count(16) // vpn, pfn
	if r.Err() != nil {
		return
	}
	m.table = make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		vpn := r.U64()
		m.table[vpn] = r.U64()
	}
	n = r.Count(8) // pfn
	if r.Err() != nil {
		return
	}
	m.used = make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		m.used[r.U64()] = struct{}{}
	}
	m.tlb = [tlbSize]tlbEntry{}
}
