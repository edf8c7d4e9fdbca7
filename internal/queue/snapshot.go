package queue

import (
	"ulmt/internal/checkpoint"
	"ulmt/internal/mem"
	"ulmt/internal/sim"
)

// Snapshot serializes the queue's ring contents and drop counter.
// The checkpoint protocol only snapshots when the request queues are
// empty, but the codec is written for the general case so the ring
// state survives verbatim either way.
func (q *Queue) Snapshot(w *checkpoint.Writer) {
	w.Tag("queue")
	w.Int(len(q.items))
	for _, e := range q.items {
		w.U64(uint64(e.Line))
		w.Bool(e.Prefetch)
		w.I64(int64(e.At))
		w.U64(e.ID)
	}
	w.Int(q.head)
	w.Int(q.n)
	w.U64(q.drops)
}

// Restore rebuilds the state captured by Snapshot.
func (q *Queue) Restore(r *checkpoint.Reader) {
	r.Tag("queue")
	if n := r.Int(); n != len(q.items) && r.Err() == nil {
		r.Failf("queue %s capacity %d, configured %d", q.name, n, len(q.items))
		return
	}
	for i := range q.items {
		e := &q.items[i]
		e.Line = mem.Line(r.U64())
		e.Prefetch = r.Bool()
		e.At = sim.Cycle(r.I64())
		e.ID = r.U64()
	}
	q.head, q.n = r.Ring(len(q.items))
	q.drops = r.U64()
}

// Snapshot serializes the filter's FIFO history and counters; the
// recently-seen window shapes future Admit decisions, so it must
// survive a checkpoint exactly.
func (f *Filter) Snapshot(w *checkpoint.Writer) {
	w.Tag("filter")
	w.Int(len(f.fifo))
	for _, l := range f.fifo {
		w.U64(uint64(l))
	}
	w.Int(f.head)
	w.Int(f.n)
	w.U64(f.dropped)
	w.U64(f.passed)
}

// Restore rebuilds the state captured by Snapshot.
func (f *Filter) Restore(r *checkpoint.Reader) {
	r.Tag("filter")
	if n := r.Int(); n != len(f.fifo) && r.Err() == nil {
		r.Failf("filter capacity %d, configured %d", n, len(f.fifo))
		return
	}
	for i := range f.fifo {
		f.fifo[i] = mem.Line(r.U64())
	}
	f.head, f.n = r.Ring(len(f.fifo))
	f.dropped = r.U64()
	f.passed = r.U64()
	// The signature array is derived state: rebuild it from the
	// restored occupied span.
	clear(f.sigs)
	for i := 0; i < f.n; i++ {
		slot := (f.head + i) % f.cap
		f.setSig(slot, lineSig(f.fifo[slot]))
	}
}
