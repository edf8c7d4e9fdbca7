package table

import (
	"sort"
	"sync"
	"unsafe"

	"ulmt/internal/mem"
)

// Successor-arena recycling. The arena is the dominant allocation of a
// Table 2 instance (NumRows*NumLevels*NumSucc words — hundreds of
// megabytes at the large geometries), and an experiment matrix builds
// dozens of same-geometry tables back to back; zeroing each fresh
// arena was the single largest flat cost in whole-run profiles.
//
// Recycled arenas are reused DIRTY. That is safe by the same argument
// that lets Reset leave the arena untouched: every successor read is
// bounded by the per-row occupancy counts (cnt), which a recycled
// table starts with zeroed, so stale words beyond cnt are never
// observable through the table's API.
//
// The pool only fills through explicit Recycle calls (the experiment
// runner retires a machine's tables once its results are extracted),
// so code that never recycles sees fresh zeroed allocations, exactly
// as before.
//
// Retention is capped: with a byte cap set via SetArenaBudget, the
// bytes PARKED in the pool never exceed it. Live arenas (which the
// simulation needs regardless of any cap) do not count: an arena
// leaves the count the moment it goes live. Parking an arena that
// does not fit first evicts LARGER pooled arenas (they are the ones
// that keep peak heap high), and an arena larger than the cap itself
// is dropped to the GC instead of retained — correct, only slower on
// the next same-geometry build. With cap 0 the pool is unbounded.
var arenaPool struct {
	mu     sync.Mutex
	byLen  map[int][][]mem.Line
	pooled int64 // bytes currently parked in byLen
	cap    int64 // bytes the pool may park; 0 = uncapped
}

// lineBytes is the accounting unit: the size of one arena word.
const lineBytes = int64(unsafe.Sizeof(mem.Line(0)))

// SetArenaBudget caps the bytes the process-wide pool may park (0 =
// uncapped), evicting pooled arenas largest-first down to the new
// cap.
func SetArenaBudget(capBytes int64) {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	arenaPool.cap = capBytes
	if capBytes > 0 {
		evictLocked(arenaPool.pooled - capBytes)
	}
}

// evictLocked drops pooled arenas, largest length first, until need
// bytes have been freed or the pool is empty. The caller holds mu.
func evictLocked(need int64) {
	if need <= 0 {
		return
	}
	lengths := make([]int, 0, len(arenaPool.byLen))
	for n := range arenaPool.byLen {
		lengths = append(lengths, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	var freed int64
	for _, n := range lengths {
		frees := arenaPool.byLen[n]
		for len(frees) > 0 && freed < need {
			frees = frees[:len(frees)-1]
			freed += int64(n) * lineBytes
		}
		if len(frees) == 0 {
			delete(arenaPool.byLen, n)
		} else {
			arenaPool.byLen[n] = frees
		}
		if freed >= need {
			break
		}
	}
	arenaPool.pooled -= freed
}

// newArena returns a zero-length-history arena of exactly n words:
// recycled when one of that length is pooled, freshly allocated
// otherwise.
func newArena(n int) []mem.Line {
	arenaPool.mu.Lock()
	if frees := arenaPool.byLen[n]; len(frees) > 0 {
		a := frees[len(frees)-1]
		arenaPool.byLen[n] = frees[:len(frees)-1]
		arenaPool.pooled -= int64(n) * lineBytes
		arenaPool.mu.Unlock()
		return a
	}
	arenaPool.mu.Unlock()
	return make([]mem.Line, n)
}

// putArena parks a retired arena if the cap allows, evicting pooled
// arenas largest-first to make room.
func putArena(a []mem.Line) {
	n := int64(len(a)) * lineBytes
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	c := arenaPool.cap
	if n == 0 || c > 0 && n > c {
		return
	}
	if c > 0 {
		evictLocked(arenaPool.pooled + n - c)
	}
	if arenaPool.byLen == nil {
		arenaPool.byLen = make(map[int][][]mem.Line)
	}
	arenaPool.byLen[len(a)] = append(arenaPool.byLen[len(a)], a)
	arenaPool.pooled += n
}

// PooledArenaBytes reports the bytes currently parked in the pool
// (not live in any table).
func PooledArenaBytes() int64 {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	return arenaPool.pooled
}

// FlushArenaPool drops every pooled arena, releasing the memory to
// the GC. Subsequent builds allocate fresh zeroed arenas, which is
// also what a caller needs before comparing two tables byte-for-byte
// (a recycled arena carries unobservable stale words).
func FlushArenaPool() {
	arenaPool.mu.Lock()
	arenaPool.byLen = nil
	arenaPool.pooled = 0
	arenaPool.mu.Unlock()
}

// Recycle returns the table's successor arena to the process-wide
// pool for a future same-geometry build. The table must not be used
// afterwards.
func (t *BaseTable) Recycle() {
	putArena(t.succ)
	t.succ = nil
}

// Recycle returns the table's successor arena to the process-wide
// pool for a future same-geometry build. The table must not be used
// afterwards.
func (t *ReplTable) Recycle() {
	putArena(t.succ)
	t.succ = nil
}
