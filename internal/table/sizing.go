package table

import (
	"math/bits"
	"slices"

	"ulmt/internal/mem"
)

// SizeRows finds the smallest power-of-two NumRows such that, when
// the given L2-miss line trace is learned into a two-way
// set-associative table with the trivial lower-bits hash, fewer than
// maxReplaceFrac of the insertions replace an existing entry. This is
// exactly the sizing rule behind the "NumRows (K)" column of Table 2
// ("We have sized the number of rows in the table to be the lowest
// power of two such that ... less than 5% of the insertions replace
// an existing entry", §4).
//
// The probe uses the Base organization; the resulting NumRows is then
// shared by Base, Chain and Replicated, whose sizes differ only in
// row bytes, as in the paper.
//
// The geometry arguments are sanitized rather than validated: assoc
// is rounded down to a power of two (Params needs a power-of-two set
// count), minRows is rounded up to a power of two of at least assoc,
// and the search stops at maxRows even when maxRows < minRows, so the
// result is always at least minRows. SizeRows never panics and is a
// pure function of its arguments.
//
// Each candidate row count is an exact, independent replica of
// learning the trace into a Base table with NumSucc=1 (successor
// lists cannot affect insertion or replacement counts), replayed on
// the trace's distinct lines rather than the table's rows: see
// sizeTrace. A candidate that cannot pass is skipped unreplayed. With
// D distinct lines and F = Σ over its sets of min(assoc, lines in the
// set), at most F insertions fill an empty way, so repl ≥ ins−F, and
// every line is inserted at least once, so ins ≥ D. Hence
// repl/ins ≥ (D−F)/D, and as correctly rounded division is monotone,
// a candidate whose (D−F)/D is not under maxReplaceFrac fails the
// replayed test too. The last candidate is always replayed, because
// its rate is returned.
func SizeRows(trace []mem.Line, assoc int, maxReplaceFrac float64, minRows, maxRows int) (numRows int, rate float64) {
	if assoc <= 0 {
		assoc = 2
	}
	// Round assoc down to a power of two so sets = rows/assoc is a
	// power of two whenever rows is.
	for assoc&(assoc-1) != 0 {
		assoc &= assoc - 1
	}
	if minRows < assoc {
		minRows = assoc
	}
	// Round minRows up to a power of two.
	for minRows&(minRows-1) != 0 {
		minRows += minRows & -minRows
	}
	st := newSizeTrace(trace)
	d := len(st.lines)
	for rows := minRows; ; rows <<= 1 {
		// rows<<1 guards pathological maxRows: the sequence ends
		// before the doubling could overflow.
		last := rows >= maxRows || rows<<1 <= 0
		fill := st.mapSets(uint64(rows/assoc-1), assoc)
		if !last && d > 0 && !(float64(d-fill)/float64(d) < maxReplaceFrac) {
			continue
		}
		if rate = st.replay(assoc); rate < maxReplaceFrac || last {
			return rows, rate
		}
	}
}

// sizeTrace is a miss trace recoded for sizing. Every distinct line
// gets a dense ID, its rank in bit-reversed address order, so for any
// power-of-two set count the lines of one set hold a contiguous run
// of IDs. A candidate then simulates only the sets the trace
// occupies, on arrays of at most assoc × D ways that stay in the host
// caches, where the table the rule describes would scatter the same
// probes over up to maxRows rows.
type sizeTrace struct {
	ids   []int      // the trace, as IDs
	lines []mem.Line // distinct lines, indexed by ID
	set   []int      // per ID: its set's index among the occupied sets
	ways  []sizeWay  // assoc per occupied set
}

// sizeWay is one way of a simulated set. lru doubles as the valid
// bit: every allocated way is immediately stamped with the current
// tick, which starts at 1, so lru == 0 means the way was never
// filled.
type sizeWay struct {
	id  int
	lru uint64
}

func newSizeTrace(trace []mem.Line) *sizeTrace {
	ids := make([]int, len(trace))
	var lines []mem.Line
	first := make(map[mem.Line]int)
	for i, l := range trace {
		id, ok := first[l]
		if !ok {
			id = len(lines)
			first[l] = id
			lines = append(lines, l)
		}
		ids[i] = id
	}
	// Renumber from first-seen order to bit-reversed address order.
	// Bit reversal is its own inverse, so the sorted keys give back
	// the lines.
	keys := make([]uint64, len(lines))
	for i, l := range lines {
		keys[i] = bits.Reverse64(uint64(l))
	}
	slices.Sort(keys)
	rank := make([]int, len(lines))
	for id, l := range lines {
		rank[id], _ = slices.BinarySearch(keys, bits.Reverse64(uint64(l)))
	}
	for i, id := range ids {
		ids[i] = rank[id]
	}
	for r, k := range keys {
		lines[r] = mem.Line(bits.Reverse64(k))
	}
	return &sizeTrace{ids: ids, lines: lines, set: make([]int, len(lines))}
}

// mapSets assigns every ID its occupied set under the set mask, sizes
// the ways for them, and returns F, the number of ways the trace can
// fill without a replacement: Σ over occupied sets of min(assoc,
// lines in the set).
func (st *sizeTrace) mapSets(mask uint64, assoc int) (fill int) {
	n, run := 0, 0
	for id, l := range st.lines {
		if id > 0 && uint64(l)&mask != uint64(st.lines[id-1])&mask {
			fill += min(run, assoc)
			n, run = n+1, 0
		}
		st.set[id] = n
		run++
	}
	fill += min(run, assoc)
	if run > 0 {
		n++
	}
	if cap(st.ways) < n*assoc {
		st.ways = make([]sizeWay, n*assoc)
	}
	st.ways = st.ways[:n*assoc]
	return fill
}

// replay learns the trace into the sets mapSets laid out and returns
// the replacement rate. The recurrence is BaseTable.Learn with the
// successor work elided: stamp the previous miss's row, then find or
// allocate the current miss's row and stamp it with the same tick.
// The previous miss's row is the one the last step found or
// allocated, and nothing has touched the table since, so it is
// re-stamped directly instead of probed for.
func (st *sizeTrace) replay(assoc int) float64 {
	clear(st.ways)
	var ins, repl uint64
	row := -1
	for i, id := range st.ids {
		tick := uint64(i) + 1
		if row >= 0 {
			st.ways[row].lru = tick
			if st.ways[row].id == id {
				continue
			}
		}
		// Probe, then allocate with baseFindOrAlloc's victim rule:
		// the first invalid way, else the strictly least recently
		// used in way order.
		ri := st.set[id] * assoc
		ws := st.ways[ri : ri+assoc]
		w := 0
		for w < assoc && !(ws[w].lru > 0 && ws[w].id == id) {
			w++
		}
		if w == assoc {
			w = 0
			for v := range ws {
				if ws[v].lru == 0 {
					w = v
					break
				}
				if ws[v].lru < ws[w].lru {
					w = v
				}
			}
			ins++
			if ws[w].lru > 0 {
				repl++
			}
			ws[w].id = id
		}
		ws[w].lru = tick
		row = ri + w
	}
	if ins == 0 {
		return 0
	}
	return float64(repl) / float64(ins)
}

// TableSizes reports the simulated footprint in bytes of the three
// organizations at a shared NumRows, reproducing the last three
// columns of Table 2 (20/12/28 bytes per row for Base/Chain/Repl on a
// 32-bit machine). Row bytes follow the constructors' layout — a tag
// word plus the successor words (one level for Base and Chain,
// NumLevels replicas for Repl) — without materializing the tables.
func TableSizes(numRows int) (base, chain, repl int) {
	bp, cp, rp := BaseParams(numRows), ChainParams(numRows), ReplParams(numRows)
	base = bp.NumRows * (tagWordBytes + bp.NumSucc*succWordBytes)
	chain = cp.NumRows * (tagWordBytes + cp.NumSucc*succWordBytes)
	repl = rp.NumRows * (tagWordBytes + rp.NumLevels*rp.NumSucc*succWordBytes)
	return base, chain, repl
}
