package prefetch

import (
	"sort"

	"ulmt/internal/checkpoint"
	"ulmt/internal/mem"
)

// Checkpoint support for the ULMT algorithms. SupportsSnapshot
// reports whether an algorithm's full state can be serialized;
// SnapshotAlg/RestoreAlg walk the concrete types. Func adapters wrap
// arbitrary user closures with arbitrary captured state, so they are
// honestly unsupported rather than silently half-saved; Adaptive is
// excluded for now because no experiment configuration builds one.

// SupportsSnapshot reports whether SnapshotAlg can serialize a's
// complete state. A nil algorithm is trivially supported.
func SupportsSnapshot(a Algorithm) bool {
	switch alg := a.(type) {
	case nil:
		return true
	case *Base, *Chain, *Repl, *Seq:
		return true
	case *Combined:
		return SupportsSnapshot(alg.First) && SupportsSnapshot(alg.Second)
	default:
		return false
	}
}

// SnapshotAlg serializes a supported algorithm's state (table
// contents ride along through the table snapshotters). Callers gate
// on SupportsSnapshot; an unsupported type panics.
func SnapshotAlg(w *checkpoint.Writer, a Algorithm) {
	switch alg := a.(type) {
	case nil:
		w.Tag("alg-nil")
	case *Base:
		w.Tag("alg-base")
		alg.T.Snapshot(w)
	case *Chain:
		w.Tag("alg-chain")
		alg.T.Snapshot(w)
	case *Repl:
		w.Tag("alg-repl")
		alg.T.Snapshot(w)
	case *Seq:
		w.Tag("alg-seq")
		snapshotStreams(w, alg.streams)
		snapshotCand(w, alg.candUp)
		snapshotCand(w, alg.candDown)
		w.U64(alg.tick)
	case *Combined:
		w.Tag("alg-combined")
		SnapshotAlg(w, alg.First)
		SnapshotAlg(w, alg.Second)
	default:
		panic("prefetch: snapshot of unsupported algorithm " + a.Name())
	}
}

// RestoreAlg restores state captured by SnapshotAlg into an
// identically-constructed algorithm.
func RestoreAlg(r *checkpoint.Reader, a Algorithm) {
	switch alg := a.(type) {
	case nil:
		r.Tag("alg-nil")
	case *Base:
		r.Tag("alg-base")
		alg.T.Restore(r)
	case *Chain:
		r.Tag("alg-chain")
		alg.T.Restore(r)
	case *Repl:
		r.Tag("alg-repl")
		alg.T.Restore(r)
	case *Seq:
		r.Tag("alg-seq")
		restoreStreamsInto(r, alg.streams)
		alg.candUp = restoreCand(r)
		alg.candDown = restoreCand(r)
		alg.tick = r.U64()
	case *Combined:
		r.Tag("alg-combined")
		RestoreAlg(r, alg.First)
		RestoreAlg(r, alg.Second)
	default:
		panic("prefetch: restore of unsupported algorithm " + a.Name())
	}
}

// Snapshot serializes the processor-side sequential prefetcher, which
// accumulates stream and candidate state across the whole run.
func (c *Conven) Snapshot(w *checkpoint.Writer) {
	w.Tag("conven")
	snapshotStreams(w, c.streams)
	snapshotCand(w, c.candUp)
	snapshotCand(w, c.candDown)
	w.U64(c.tick)
	w.U64(c.issued)
}

// Restore rebuilds the state captured by Snapshot.
func (c *Conven) Restore(r *checkpoint.Reader) {
	r.Tag("conven")
	restoreStreamsInto(r, c.streams)
	// Restored maps are rebuilt at trim capacity, matching NewConven.
	c.candUp = restoreCandSized(r, 2*maxCand)
	c.candDown = restoreCandSized(r, 2*maxCand)
	c.tick = r.U64()
	c.issued = r.U64()
}

func snapshotStreams(w *checkpoint.Writer, streams []streamReg) {
	w.Int(len(streams))
	for _, s := range streams {
		w.Bool(s.valid)
		w.U64(uint64(s.expected))
		w.I64(s.stride)
		w.U64(s.lru)
	}
}

func restoreStreamsInto(r *checkpoint.Reader, streams []streamReg) {
	if n := r.Int(); n != len(streams) && r.Err() == nil {
		r.Failf("stream registers %d, configured %d", n, len(streams))
		return
	}
	for i := range streams {
		s := &streams[i]
		s.valid = r.Bool()
		s.expected = mem.Line(r.U64())
		s.stride = r.I64()
		s.lru = r.U64()
	}
}

// snapshotCand writes a candidate run-length map in sorted key order,
// so identical states always serialize to identical bytes. The maps
// are only ever read by key and cleared whole, never iterated, so
// restoring content (not bucket layout) reproduces behavior exactly.
func snapshotCand(w *checkpoint.Writer, m map[mem.Line]int) {
	w.Int(len(m))
	keys := make([]mem.Line, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		w.U64(uint64(k))
		w.Int(m[k])
	}
}

func restoreCand(r *checkpoint.Reader) map[mem.Line]int {
	return restoreCandSized(r, 0)
}

func restoreCandSized(r *checkpoint.Reader, capacity int) map[mem.Line]int {
	n := r.Count(16) // line, run length
	if r.Err() != nil {
		return make(map[mem.Line]int)
	}
	m := make(map[mem.Line]int, max(n, capacity))
	for i := 0; i < n; i++ {
		k := mem.Line(r.U64())
		m[k] = r.Int()
	}
	return m
}
