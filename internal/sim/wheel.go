package sim

import "math/bits"

// The wheel exploits the latency profile of a memory-system
// simulator: almost every delay is a short bounded latency (cache
// round trips of a few cycles, bus slots of tens, DRAM accesses of a
// couple hundred, ULMT sessions of a few thousand), so a window of
// wheelSize cycles ahead of the clock catches essentially all
// traffic. Only rare far-future events — multiprogramming timeslices,
// fault schedules — spill to the overflow heap.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits // 4096-cycle window
	wheelMask = wheelSize - 1
)

// bucket holds the events of exactly one cycle, in scheduling order.
// head indexes the next event to fire; the backing array is reused
// across window laps, so a warmed-up wheel appends without growing.
type bucket struct {
	ev   []event
	head int
}

// wheel is a single-level time wheel over [base, base+wheelSize) with
// a two-level occupancy bitmap and a spill heap for events at or
// beyond base+wheelSize.
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
//     the old window, and events inserted after the spill carry
//     larger seq and append behind it.
type wheel struct {
	base    Cycle
	count   int // events resident in buckets
	summary uint64
	words   [wheelSize / 64]uint64
	buckets [wheelSize]bucket
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

// slot reserves the next entry of at's bucket and returns it for
// in-place construction — the engine writes event fields straight
// into the bucket, skipping the stack-temporary copy a push-by-value
// would cost on every scheduled event. Returns nil when at lies
// beyond the window; the caller spills to the overflow heap. The
// caller must assign every field: a reused slot still holds the stale
// scalars of the event that last occupied it (pop only clears the
// pointer-shaped fields).
func (w *wheel) slot(at Cycle) *event {
	if at-w.base >= wheelSize {
		return nil
	}
	idx := int(at) & wheelMask
	b := &w.buckets[idx]
	if n := len(b.ev); n < cap(b.ev) {
		b.ev = b.ev[:n+1]
	} else {
		b.ev = append(b.ev, event{})
	}
	w.mark(idx)
	w.count++
	return &b.ev[len(b.ev)-1]
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
// their buckets already in FIFO order.
func (w *wheel) advanceTo(t Cycle) {
	w.base = t
	limit := t + wheelSize
	for w.over.len() > 0 && w.over.minAt() < limit {
		ev := w.over.pop()
		idx := int(ev.at) & wheelMask
		b := &w.buckets[idx]
		b.ev = append(b.ev, ev)
		w.mark(idx)
		w.count++
	}
}

// pop removes the earliest event into dst, advancing the window as
// needed. Writing through the caller's pointer (a stack slot reused
// across the run loop) moves each entry exactly once on the way out.
func (w *wheel) pop(dst *event) bool {
	if w.count == 0 {
		if w.over.len() == 0 {
			return false
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
	e := &b.ev[b.head]
	*dst = *e
	// Release only the pointer-shaped fields: that is all the GC cares
	// about, and slot() overwrites every field on reuse, so clearing
	// the scalars too would just be extra stores on the hottest loop.
	e.p, e.actor = nil, nil
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		w.clear(idx)
	}
	w.count--
	return true
}

// overflowHeap is a hand-rolled binary min-heap on (at, seq). Unlike
// container/heap it never boxes: push and pop move event values
// within one backing slice. seqKind compares as seq for equal at,
// since seq occupies its high bits.
type overflowHeap struct {
	ev []event
}

func (h *overflowHeap) len() int     { return len(h.ev) }
func (h *overflowHeap) minAt() Cycle { return h.ev[0].at }

func (h *overflowHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seqKind < b.seqKind
}

func (h *overflowHeap) push(ev *event) {
	h.ev = append(h.ev, *ev)
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

func (h *overflowHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // release payload references
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
