package table

import (
	"ulmt/internal/checkpoint"
	"ulmt/internal/mem"
)

// lines/linesInto shuttle mem.Line arenas through the codec.
func lines(w *checkpoint.Writer, vs []mem.Line) {
	w.Int(len(vs))
	for _, v := range vs {
		w.U64(uint64(v))
	}
}

func linesInto(r *checkpoint.Reader, dst []mem.Line, what string) {
	if n := r.Int(); n != len(dst) && r.Err() == nil {
		r.Failf("table %s length %d, configured %d", what, n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = mem.Line(r.U64())
	}
}

// countsInto restores successor occupancy counts, each of which
// bounds a read of a numSucc-wide successor window: a larger count
// would read the neighbouring row's successors, or past the arena.
func countsInto(r *checkpoint.Reader, dst []uint8, numSucc int) {
	r.U8sInto(dst)
	for i, c := range dst {
		if int(c) > numSucc {
			r.Failf("table occupancy %d at %d, %d successors per list", c, i, numSucc)
			return
		}
	}
}

// Snapshot serializes the packed correlation state: row tags, LRU
// ticks, validity, occupancy counts, the successor arena, and the
// last-miss bookkeeping. Geometry comes from the restoring run's
// identical Params.
func (t *BaseTable) Snapshot(w *checkpoint.Writer) {
	w.Tag("base-table")
	lines(w, t.tags)
	w.U64s(t.lru)
	w.Bools(t.valid)
	w.U8s(t.cnt)
	lines(w, t.succ)
	w.U64(uint64(t.lastMiss))
	w.Bool(t.hasLast)
	w.U64(t.tick)
	snapshotTableStats(w, &t.st)
}

// Restore rebuilds the state captured by Snapshot.
func (t *BaseTable) Restore(r *checkpoint.Reader) {
	r.Tag("base-table")
	linesInto(r, t.tags, "tags")
	r.U64sInto(t.lru)
	r.BoolsInto(t.valid)
	countsInto(r, t.cnt, t.p.NumSucc)
	linesInto(r, t.succ, "successor arena")
	t.lastMiss = mem.Line(r.U64())
	t.hasLast = r.Bool()
	t.tick = r.U64()
	restoreTableStats(r, &t.st)
}

// Snapshot serializes the Replicated organization, including the
// index-based last-miss row pointers its pointer-chased learning step
// depends on.
func (t *ReplTable) Snapshot(w *checkpoint.Writer) {
	w.Tag("repl-table")
	lines(w, t.tags)
	w.U64s(t.lru)
	w.Bools(t.valid)
	w.U8s(t.cnt)
	lines(w, t.succ)
	w.Int(len(t.last))
	for _, p := range t.last {
		w.Int(p.set)
		w.Int(p.way)
		w.U64(uint64(p.tag))
		w.Bool(p.valid)
	}
	w.U64(t.tick)
	snapshotTableStats(w, &t.st)
}

// Restore rebuilds the state captured by Snapshot.
func (t *ReplTable) Restore(r *checkpoint.Reader) {
	r.Tag("repl-table")
	linesInto(r, t.tags, "tags")
	r.U64sInto(t.lru)
	r.BoolsInto(t.valid)
	countsInto(r, t.cnt, t.p.NumSucc)
	linesInto(r, t.succ, "successor arena")
	if n := r.Int(); n != len(t.last) && r.Err() == nil {
		r.Failf("table last-miss pointers %d, configured %d", n, len(t.last))
		return
	}
	sets := t.p.NumRows / t.p.Assoc
	for i := range t.last {
		p := &t.last[i]
		p.set = r.Int()
		p.way = r.Int()
		p.tag = mem.Line(r.U64())
		p.valid = r.Bool()
		if p.valid && (p.set < 0 || p.set >= sets || p.way < 0 || p.way >= t.p.Assoc) {
			r.Failf("table last-miss pointer %d at set %d way %d, geometry %d×%d", i, p.set, p.way, sets, t.p.Assoc)
			return
		}
	}
	t.tick = r.U64()
	restoreTableStats(r, &t.st)
}

func snapshotTableStats(w *checkpoint.Writer, s *Stats) {
	w.U64(s.Lookups)
	w.U64(s.LookupHits)
	w.U64(s.Insertions)
	w.U64(s.Replacements)
	w.U64(s.SuccUpdates)
}

func restoreTableStats(r *checkpoint.Reader, s *Stats) {
	s.Lookups = r.U64()
	s.LookupHits = r.U64()
	s.Insertions = r.U64()
	s.Replacements = r.U64()
	s.SuccUpdates = r.U64()
}
