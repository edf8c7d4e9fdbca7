// Package bus models the split-transaction main memory bus between
// the main processor and the North Bridge chip: 8 bytes wide at
// 400 MHz for 3.2 GB/s peak (paper Table 3).
//
// One bus beat (8 bytes) takes 4 main-processor cycles (1.6 GHz /
// 400 MHz). A miss request occupies one address beat; a 64-byte line
// transfer occupies 8 data beats. Because the bus is split
// transaction, a request beat and the corresponding reply transfer
// are arbitrated independently.
//
// Arbitration is two-level: demand traffic (miss requests, demand
// replies) wins the bus over prefetch pushes and write-backs, FIFO
// within each class. That matters because memory-side prefetching
// adds one-way push traffic (§5.2); without priority, a convoy of
// pushed lines would queue demand replies behind it and the
// prefetcher could slow the processor down — the opposite of the
// paper's measurements.
//
// The model therefore runs as an active component on the simulation
// engine. TransferRequestTo and TransferLineTo deliver completion as a
// typed (sim.Kind, sim.Event) pair to a long-lived actor, and the bus
// itself is a sim.Actor: each in-flight transfer is completed by one
// typed self-event, so a granted transfer costs no allocation at all.
package bus

import (
	"ulmt/internal/sim"
	"ulmt/internal/stats"
)

// Kind classifies a transfer for arbitration and for the Fig 11
// utilization accounting.
type Kind int

const (
	// Demand is a main-processor miss request or its reply: highest
	// priority.
	Demand Kind = iota
	// Writeback is a dirty line heading to memory: yields to demand.
	Writeback
	// Prefetch is traffic that exists only because of prefetching
	// (pushed lines, processor-side prefetch fills): lowest
	// priority, and tracked separately for Fig 11.
	Prefetch
)

// Config sets the timing of the bus.
type Config struct {
	// CyclesPerBeat is main-processor cycles per bus beat (1.6 GHz /
	// 400 MHz = 4).
	CyclesPerBeat sim.Cycle
	// BeatsPerLine is beats needed to move one L2 line (64 B / 8 B = 8).
	BeatsPerLine sim.Cycle
	// RequestBeats is beats for an address/command packet.
	RequestBeats sim.Cycle
}

// DefaultConfig matches Table 3.
func DefaultConfig() Config {
	return Config{CyclesPerBeat: 4, BeatsPerLine: 8, RequestBeats: 1}
}

// transfer is one queued bus occupancy and the typed (actor, ekind,
// ev) target its completion goes to.
type transfer struct {
	dur   sim.Cycle
	kind  Kind
	actor sim.Actor
	ekind sim.Kind
	ev    sim.Event
}

// ring is a FIFO of transfers on a reused circular buffer, so
// steady-state enqueue/dequeue never allocates (the old slice queue
// re-appended into freshly grown backing arrays forever, because
// popping with q = q[1:] strands the front capacity).
type ring struct {
	buf  []transfer
	head int
	n    int
}

func (r *ring) len() int { return r.n }

// Entries move through pointers, never by value: the transfer struct
// is wide enough that passing it by value through enqueue, both
// queues, and the in-flight FIFO showed up as bulk-copy time in
// profiles. next hands out the tail slot for in-place construction —
// the enqueue path writes each field exactly once, straight into the
// ring.
func (r *ring) next() *transfer {
	if r.n == len(r.buf) {
		grown := make([]transfer, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	// head < len and n <= len, so one conditional subtract replaces
	// the modulo on this per-transfer path.
	idx := r.head + r.n
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	r.n++
	return &r.buf[idx]
}

// moveTo pops r's head straight into dst's tail slot — one bulk copy
// instead of the two a pop-to-stack-then-push would cost on every
// granted transfer. Returns the destination slot; the caller must
// read what it needs before anything else touches dst.
func (r *ring) moveTo(dst *ring) *transfer {
	if dst.n == len(dst.buf) {
		grown := make([]transfer, max(8, 2*len(dst.buf)))
		for i := 0; i < dst.n; i++ {
			grown[i] = dst.buf[(dst.head+i)%len(dst.buf)]
		}
		dst.buf, dst.head = grown, 0
	}
	idx := dst.head + dst.n
	if idx >= len(dst.buf) {
		idx -= len(dst.buf)
	}
	e := &r.buf[r.head]
	dst.buf[idx] = *e
	e.actor, e.ev.P = nil, nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	dst.n++
	return &dst.buf[idx]
}

// Bus serializes transfers on a single shared medium with demand
// priority.
type Bus struct {
	cfg       Config
	eng       *sim.Engine
	busyUntil sim.Cycle
	highQ     ring // Demand
	lowQ      ring // Writeback, Prefetch
	granting  bool
	inflight  ring // granted transfers awaiting their completion event
	st        stats.BusStats
	tc        stats.BusTransfers

	// stretch, when set, may lengthen a transfer granted at now
	// (fault injection: bandwidth brownouts). Nil on the fast path.
	stretch func(now, dur sim.Cycle) sim.Cycle
}

// New builds an idle bus on the engine.
func New(eng *sim.Engine, cfg Config) *Bus { return &Bus{cfg: cfg, eng: eng} }

// SetStretch installs a transfer-duration hook; f receives the grant
// time and nominal duration and returns the effective duration (>=
// nominal). Used by the fault layer to model bus brownouts.
func (b *Bus) SetStretch(f func(now, dur sim.Cycle) sim.Cycle) { b.stretch = f }

// TransferRequestTo enqueues an address/command packet, delivering
// (ekind, ev) to a when the last beat crosses; the completion time is
// the engine's Now at delivery. Allocation-free.
func (b *Bus) TransferRequestTo(kind Kind, a sim.Actor, ekind sim.Kind, ev sim.Event) {
	b.enqueue(kind, b.requestCycles(), a, ekind, ev)
}

// TransferLineTo enqueues a full line transfer, delivering (ekind,
// ev) to a when the last beat lands. Allocation-free.
func (b *Bus) TransferLineTo(kind Kind, a sim.Actor, ekind sim.Kind, ev sim.Event) {
	b.enqueue(kind, b.LineCycles(), a, ekind, ev)
}

func (b *Bus) requestCycles() sim.Cycle { return b.cfg.RequestBeats * b.cfg.CyclesPerBeat }

// enqueue claims the tail slot of the right priority queue, writes
// every field of the transfer in place (a pop leaves stale scalars
// behind), and grants the bus if it is free.
func (b *Bus) enqueue(kind Kind, dur sim.Cycle, a sim.Actor, ekind sim.Kind, ev sim.Event) {
	var t *transfer
	if kind == Demand {
		t = b.highQ.next()
	} else {
		t = b.lowQ.next()
	}
	t.dur, t.kind, t.actor, t.ekind, t.ev = dur, kind, a, ekind, ev
	b.grant()
}

// grant starts the next transfer if the medium is free.
func (b *Bus) grant() {
	if b.granting {
		return
	}
	now := b.eng.Now()
	if b.busyUntil > now {
		// A completion event is already scheduled; it will re-grant.
		return
	}
	var src *ring
	switch {
	case b.highQ.len() > 0:
		src = &b.highQ
	case b.lowQ.len() > 0:
		src = &b.lowQ
	default:
		return
	}
	b.granting = true
	t := src.moveTo(&b.inflight)
	dur, kind := t.dur, t.kind
	if b.stretch != nil {
		dur = b.stretch(now, dur)
	}
	done := now + dur
	b.busyUntil = done
	b.st.BusyCycles += dur
	switch kind {
	case Demand:
		b.tc.Demand++
	case Writeback:
		b.tc.Writeback++
	case Prefetch:
		b.st.PrefetchCycles += dur
		b.tc.Prefetch++
	}
	b.eng.Schedule(done, b, 0, sim.Event{})
	b.granting = false
}

// Fire implements sim.Actor: the oldest in-flight transfer's last
// beat has crossed. Deliver its completion, then grant the next
// transfer. In-flight transfers are a FIFO, not a single slot: a
// transfer enqueued at exactly busyUntil — before the pending
// completion event fires in the same cycle — is granted immediately
// (busyUntil > now is false), briefly overlapping the finishing one.
// Completion events still fire in grant order (each done time is >=
// the previous, and same-cycle ties fire in schedule order), so the
// FIFO pairs every event with its transfer.
func (b *Bus) Fire(_ sim.Kind, _ sim.Event) {
	// Read the completion target out of the head slot and release it
	// before delivering: Fire may reenter enqueue and reshape the ring.
	r := &b.inflight
	e := &r.buf[r.head]
	actor, ekind, ev := e.actor, e.ekind, e.ev
	e.actor, e.ev.P = nil, nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	actor.Fire(ekind, ev)
	b.grant()
}

// LineCycles reports how long one line transfer occupies the bus.
func (b *Bus) LineCycles() sim.Cycle { return b.cfg.BeatsPerLine * b.cfg.CyclesPerBeat }

// Backlog reports queued-but-ungranted transfers (both classes),
// a congestion signal for diagnostics.
func (b *Bus) Backlog() int { return b.highQ.len() + b.lowQ.len() }

// LowBacklog reports queued-but-ungranted low-priority transfers.
// The memory controller uses it as back-pressure: it stops launching
// prefetch pushes when the staging buffer is full, so stale pushes
// pile up in queue 3 (and are dropped or cross-matched there) rather
// than in an unbounded bus queue.
func (b *Bus) LowBacklog() int { return b.lowQ.len() }

// Stats returns the accumulated occupancy counters.
func (b *Bus) Stats() stats.BusStats { return b.st }

// Transfers returns the per-class granted-transfer counts.
func (b *Bus) Transfers() stats.BusTransfers { return b.tc }
