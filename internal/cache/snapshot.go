package cache

import (
	"ulmt/internal/checkpoint"
	"ulmt/internal/mem"
)

// Snapshot serializes the cache's full microarchitectural state:
// every way's tag/flags/fill tick, LRU ticks, MSHRs, the writeback
// ring, and counters. Geometry (set count, associativity, queue
// depths) is configuration and comes from the restoring run's
// identical Config.
func (c *Cache) Snapshot(w *checkpoint.Writer) {
	w.Tag("cache")
	assoc := c.cfg.Assoc
	nsets := len(c.tags) / assoc
	w.Int(nsets)
	for si := 0; si < nsets; si++ {
		w.Int(assoc)
		for wi := 0; wi < assoc; wi++ {
			i := si*assoc + wi
			fl := c.flags[i]
			// An empty way serializes a zero tag (not the invalidTag
			// sentinel), preserving the byte layout of the previous
			// way-struct state.
			tag := uint64(0)
			if fl&wayValid != 0 {
				tag = c.tags[i]
			}
			w.U64(tag)
			w.Bool(fl&wayValid != 0)
			w.Bool(fl&wayDirty != 0)
			w.Bool(fl&wayPrefetch != 0)
			w.U64(c.filledAt[i])
		}
	}
	w.U64s(c.lru)
	w.Int(len(c.mshrs))
	for _, m := range c.mshrs {
		w.U64(uint64(m.Line))
		w.Bool(m.valid)
		w.Bool(m.Prefetch)
	}
	w.U64(c.mshrBusy)
	w.Int(len(c.wbq))
	for _, l := range c.wbq {
		w.U64(uint64(l))
	}
	w.Int(c.wbqHead)
	w.Int(c.wbqLen)
	w.U64(c.tick)
	w.U64(c.st.Accesses)
	w.U64(c.st.Misses)
	w.U64(c.st.PrefetchHits)
	w.U64(c.st.Evictions)
	w.U64(c.st.DirtyEvicts)
	w.U64(c.st.PrefetchEvictsUnused)
}

// Restore rebuilds the cache state captured by Snapshot into an
// identically-configured cache, including the packed tag mirror the
// lookup fast path reads.
func (c *Cache) Restore(r *checkpoint.Reader) {
	r.Tag("cache")
	assoc := c.cfg.Assoc
	nsets := len(c.tags) / assoc
	if n := r.Int(); n != nsets && r.Err() == nil {
		r.Failf("cache set count %d, configured %d", n, nsets)
		return
	}
	for si := 0; si < nsets; si++ {
		if n := r.Int(); n != assoc && r.Err() == nil {
			r.Failf("cache associativity %d, configured %d", n, assoc)
			return
		}
		for wi := 0; wi < assoc; wi++ {
			i := si*assoc + wi
			tag := r.U64()
			valid := r.Bool()
			var fl uint8
			if valid {
				fl |= wayValid
			}
			if r.Bool() {
				fl |= wayDirty
			}
			if r.Bool() {
				fl |= wayPrefetch
			}
			c.flags[i] = fl
			c.filledAt[i] = r.U64()
			// Rebuild the tag array exactly as fills do: empty ways
			// hold the sentinel.
			if valid {
				c.tags[i] = tag
			} else {
				c.tags[i] = invalidTag
			}
		}
	}
	r.U64sInto(c.lru)
	if n := r.Int(); n != len(c.mshrs) && r.Err() == nil {
		r.Failf("MSHR count %d, configured %d", n, len(c.mshrs))
		return
	}
	for i := range c.mshrs {
		m := &c.mshrs[i]
		m.Line = mem.Line(r.U64())
		m.valid = r.Bool()
		m.Prefetch = r.Bool()
	}
	c.mshrBusy = r.U64()
	if n := r.Int(); n != len(c.wbq) && r.Err() == nil {
		r.Failf("writeback queue depth %d, configured %d", n, len(c.wbq))
		return
	}
	for i := range c.wbq {
		c.wbq[i] = mem.Line(r.U64())
	}
	c.wbqHead, c.wbqLen = r.Ring(len(c.wbq))
	c.tick = r.U64()
	c.st.Accesses = r.U64()
	c.st.Misses = r.U64()
	c.st.PrefetchHits = r.U64()
	c.st.Evictions = r.U64()
	c.st.DirtyEvicts = r.U64()
	c.st.PrefetchEvictsUnused = r.U64()
}
