package sim

import "math/bits"

// The wheel is sized to the traffic a memory-system simulation
// carries: almost every delay is a short bounded latency (cache round
// trips of a few cycles, bus slots of tens, DRAM accesses of a couple
// hundred), and few events are pending at once (DESIGN.md "The event
// kernel" gives the measured depth and delay histograms). A window of
// wheelSize cycles ahead of the clock catches essentially all of it;
// rare far-future events (multiprogramming timeslices, fault
// schedules, the sharded table's lagging deposits) spill to the
// overflow heap.
const (
	wheelBits = 11
	wheelSize = 1 << wheelBits // 2048-cycle window
	wheelMask = wheelSize - 1
)

// node is one pending wheel event. Its cycle is implied by the bucket
// whose list holds it, and its place in that list gives same-cycle
// FIFO order, so a node carries neither a time nor a sequence number:
// only the payload and next, the pool index of the following node of
// the same cycle (or, once freed, of the free list). Index 0 is a
// sentinel meaning "none", so a zero bucket is an empty one.
type node struct {
	i0, i1 uint64
	p      any
	actor  Actor
	kind   Kind
	next   int32
}

// bucket is the FIFO list of one cycle's events: the pool indices of
// its first and last nodes, both 0 when the cycle has none.
type bucket struct {
	head, tail int32
}

// wheel is a single-level time wheel over [base, base+wheelSize) with
// a two-level occupancy bitmap and a spill heap for events at or
// beyond base+wheelSize. Every wheel event lives in one node pool,
// threaded into per-cycle lists; a freed node goes on a LIFO free
// list and is the next one reused, so the pool grows only to the peak
// number of wheel-resident events and then stops allocating.
//
// Invariants:
//
//   - base only advances, and only to a cycle with no earlier pending
//     event (the earliest wheel event, the overflow minimum when the
//     wheel is empty, or a RunUntil deadline that all events precede).
//   - Bucket at&wheelMask maps one-to-one to cycles inside the
//     window, so per-bucket append order is per-cycle FIFO order.
//   - Every overflow event is at >= base+wheelSize, i.e. strictly
//     after every wheel event. advanceTo re-establishes this by
//     spilling before any event of the new window fires, which is
//     what keeps same-cycle FIFO exact across the spill boundary: a
//     spilled event can never share a cycle with one inserted under
//     the old window, and events inserted after the spill append
//     behind it.
type wheel struct {
	base    Cycle
	count   int   // events resident in buckets
	free    int32 // first free pool node, 0 when none
	summary uint64
	words   [wheelSize / 64]uint64
	buckets [wheelSize]bucket
	pool    []node // pool[0] is the sentinel
	over    overflowHeap
}

func (w *wheel) len() int { return w.count + w.over.len() }

func (w *wheel) mark(idx int) {
	w.words[idx>>6] |= 1 << uint(idx&63)
	w.summary |= 1 << uint(idx>>6)
}

func (w *wheel) clear(idx int) {
	w.words[idx>>6] &^= 1 << uint(idx&63)
	if w.words[idx>>6] == 0 {
		w.summary &^= 1 << uint(idx>>6)
	}
}

// put appends a node to the list of cycle at, which must lie inside
// the window, and returns it for the caller to fill. The node's next
// is already 0; every other field still holds whatever the node's
// last occupant left there, so the caller must assign all of them.
func (w *wheel) put(at Cycle) *node {
	i := w.free
	if i != 0 {
		w.free = w.pool[i].next
	} else {
		w.pool = append(w.pool, node{})
		i = int32(len(w.pool) - 1)
	}
	idx := int(at) & wheelMask
	b := &w.buckets[idx]
	if b.tail == 0 {
		b.head = i
		w.mark(idx)
	} else {
		w.pool[b.tail].next = i
	}
	b.tail = i
	w.count++
	n := &w.pool[i]
	n.next = 0
	return n
}

// release returns node i to the free list. Only its pointer-shaped
// fields are cleared, so the GC keeps nothing alive through a free
// node; put's caller overwrites the scalars on reuse.
func (w *wheel) release(i int32) {
	n := &w.pool[i]
	n.p, n.actor = nil, nil
	n.next = w.free
	w.free = i
}

// first returns the bucket index of the earliest wheel event, or -1
// when the buckets are empty. The bitmap is scanned in time order:
// from the base position to the end of the window, then wrapping.
func (w *wheel) first() int {
	if w.count == 0 {
		return -1
	}
	p := int(w.base) & wheelMask
	pw, pb := p>>6, uint(p&63)
	// Bits of the base word at or after the base position.
	if m := w.words[pw] &^ (1<<pb - 1); m != 0 {
		return pw<<6 + bits.TrailingZeros64(m)
	}
	// Whole words after the base word. (pw+1 == 64 shifts the mask
	// to zero, correctly yielding no candidates.)
	if m := w.summary &^ (1<<uint(pw+1) - 1); m != 0 {
		wi := bits.TrailingZeros64(m)
		return wi<<6 + bits.TrailingZeros64(w.words[wi])
	}
	// Wrapped: whole words before the base word.
	if m := w.summary & (1<<uint(pw) - 1); m != 0 {
		wi := bits.TrailingZeros64(m)
		return wi<<6 + bits.TrailingZeros64(w.words[wi])
	}
	// Wrapped all the way into the base word's leading bits.
	if m := w.words[pw] & (1<<pb - 1); m != 0 {
		return pw<<6 + bits.TrailingZeros64(m)
	}
	return -1
}

// cycleOf converts a bucket index to its absolute cycle under the
// current window.
func (w *wheel) cycleOf(idx int) Cycle {
	d := idx - int(w.base)&wheelMask
	if d < 0 {
		d += wheelSize
	}
	return w.base + Cycle(d)
}

// peekAt reports the earliest pending cycle. Wheel events always
// precede overflow events (invariant above), so the buckets win
// whenever they are non-empty.
func (w *wheel) peekAt() (Cycle, bool) {
	if w.count > 0 {
		return w.cycleOf(w.first()), true
	}
	if w.over.len() > 0 {
		return w.over.minAt(), true
	}
	return 0, false
}

// advanceTo moves the window start to t and spills every overflow
// event that now falls inside [t, t+wheelSize). Callers must
// guarantee no pending event precedes t. Spilled events pop from the
// overflow heap in (at, seq) order, so same-cycle groups land in
// their lists already in FIFO order.
func (w *wheel) advanceTo(t Cycle) {
	w.base = t
	limit := t + wheelSize
	for w.over.len() > 0 && w.over.minAt() < limit {
		f := w.over.pop()
		*w.put(f.at) = f.n
	}
}

// pop unlinks the earliest event, moving the window start to its
// cycle, and returns its pool index, or 0 when nothing is pending.
// The node stays allocated: the caller reads it, then releases it.
func (w *wheel) pop() int32 {
	if w.count == 0 {
		if w.over.len() == 0 {
			return 0
		}
		// Everything pending is far-future: jump the window to it.
		w.advanceTo(w.over.minAt())
	}
	idx := w.first()
	if t := w.cycleOf(idx); t != w.base {
		// The front of the wheel moved forward; re-anchor the window
		// there so overflow events within reach spill in before any
		// event of cycle t fires. Spilled events are strictly later
		// than t, so idx still fronts the queue.
		w.advanceTo(t)
	}
	b := &w.buckets[idx]
	i := b.head
	if b.head = w.pool[i].next; b.head == 0 {
		b.tail = 0
		w.clear(idx)
	}
	w.count--
	return i
}

// farEvent is an overflow-heap entry: a node's payload plus the cycle
// and scheduling sequence that a bucket list would otherwise imply.
// Far-future events are rare, so its size does not matter.
type farEvent struct {
	at  Cycle
	seq uint64
	n   node
}

// overflowHeap is a hand-rolled binary min-heap on (at, seq). Unlike
// container/heap it never boxes: push and pop move values within one
// backing slice.
type overflowHeap struct {
	ev []farEvent
}

func (h *overflowHeap) len() int     { return len(h.ev) }
func (h *overflowHeap) minAt() Cycle { return h.ev[0].at }

func (h *overflowHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *overflowHeap) push(f farEvent) {
	h.ev = append(h.ev, f)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *overflowHeap) pop() farEvent {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = farEvent{} // release payload references
	h.ev = h.ev[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.ev[i], h.ev[s] = h.ev[s], h.ev[i]
		i = s
	}
	return top
}
