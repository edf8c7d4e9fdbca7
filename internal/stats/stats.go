// Package stats collects the measurements the paper's evaluation
// reports: miss-distance histograms (Fig 6), prefetch-outcome
// breakdowns (Fig 9), ULMT response/occupancy accounting (Fig 10),
// bus utilization (Fig 11), and execution-time stall attribution
// (Figs 7 and 8).
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ulmt/internal/sim"
)

// Histogram buckets values into half-open ranges defined by ascending
// edges: bin i holds values in [edges[i], edges[i+1]), and the last
// bin holds values >= edges[len-1].
type Histogram struct {
	edges  []int64
	counts []uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending edges. The
// first edge is the minimum representable value; anything below it is
// clamped into bin 0.
func NewHistogram(edges ...int64) *Histogram {
	if len(edges) == 0 {
		panic("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly ascending")
		}
	}
	return &Histogram{edges: append([]int64(nil), edges...), counts: make([]uint64, len(edges))}
}

// MissDistanceHistogram returns the Fig 6 histogram with bins
// [0,80), [80,200), [200,280), [280,inf) in 1.6 GHz cycles.
func MissDistanceHistogram() *Histogram { return NewHistogram(0, 80, 200, 280) }

// Add records one observation.
func (h *Histogram) Add(v int64) {
	i := sort.Search(len(h.edges), func(i int) bool { return h.edges[i] > v }) - 1
	if i < 0 {
		i = 0
	}
	h.counts[i]++
	h.total++
}

// Bins returns one label and fraction per bin; fractions sum to 1
// (or are all zero when nothing was recorded).
func (h *Histogram) Bins() []Bin {
	out := make([]Bin, len(h.edges))
	for i := range h.edges {
		var label string
		if i == len(h.edges)-1 {
			label = fmt.Sprintf("[%d,inf)", h.edges[i])
		} else {
			label = fmt.Sprintf("[%d,%d)", h.edges[i], h.edges[i+1])
		}
		frac := 0.0
		if h.total > 0 {
			frac = float64(h.counts[i]) / float64(h.total)
		}
		out[i] = Bin{Label: label, Count: h.counts[i], Frac: frac}
	}
	return out
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the raw count of bin i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Frac returns bin i's share of all observations.
func (h *Histogram) Frac(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Bin is one histogram bucket for reporting.
type Bin struct {
	Label string
	Count uint64
	Frac  float64
}

// String renders the histogram on one line, e.g. for logs.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, bin := range h.Bins() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1f%%", bin.Label, bin.Frac*100)
	}
	return b.String()
}

// histogramJSON is the exported wire form of Histogram for the
// experiment runner's result cache. Counts are exact integers, so a
// marshal/unmarshal round trip reproduces the histogram bit-for-bit.
type histogramJSON struct {
	Edges  []int64  `json:"edges"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
}

// MarshalJSON lets a Histogram survive the Results JSON round trip
// despite its unexported fields.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Edges: h.edges, Counts: h.counts, Total: h.total})
}

// UnmarshalJSON restores a Histogram persisted by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Counts) != len(j.Edges) {
		return fmt.Errorf("stats: histogram with %d edges needs %d counts, got %d",
			len(j.Edges), len(j.Edges), len(j.Counts))
	}
	h.edges = j.Edges
	h.counts = j.Counts
	h.total = j.Total
	return nil
}

// PrefetchOutcomes is the Fig 9 breakdown. All counts are in units of
// events; the figure normalizes them to the original (NoPref) number
// of L2 misses.
type PrefetchOutcomes struct {
	// Hits counts prefetched lines that were referenced after arriving
	// in L2, each eliminating one original L2 miss entirely.
	Hits uint64
	// DelayedHits counts L2 misses whose latency was partially hidden
	// because a prefetch for the same line was already in flight (the
	// prefetch "steals the MSHR and updates the cache as if it were
	// the reply", §2.1, or is matched at the memory controller).
	DelayedHits uint64
	// NonPrefMisses counts L2 misses that paid the full latency.
	NonPrefMisses uint64
	// Replaced counts prefetched lines evicted from L2 before any
	// reference: useless traffic.
	Replaced uint64
	// Redundant counts prefetched lines dropped on arrival at L2
	// because the cache (or its write-back queue) already had the
	// line, no MSHR was free, or the whole set was transaction
	// pending. The paper's Redundant category is the
	// already-in-cache case; the other drops are folded in here and
	// also reported separately below.
	Redundant uint64
	// DroppedNoMSHR and DroppedPendingSet break out the non-redundant
	// drop reasons for diagnostics.
	DroppedNoMSHR       uint64
	DroppedPendingSet   uint64
	DroppedWritebackHit uint64
}

// Coverage is Hits+DelayedHits over the original number of misses.
func (p PrefetchOutcomes) Coverage(originalMisses uint64) float64 {
	if originalMisses == 0 {
		return 0
	}
	return float64(p.Hits+p.DelayedHits) / float64(originalMisses)
}

// BusStats tracks main memory bus occupancy for Fig 11.
type BusStats struct {
	BusyCycles     sim.Cycle // total cycles the bus was transferring
	PrefetchCycles sim.Cycle // subset attributable to prefetch traffic
}

// BusTransfers counts granted transfers per arbitration class. It
// exists for the multi-core conservation invariants: every demand
// miss crosses the shared bus exactly once, so per-core miss counters
// must sum to the bus's demand transfer count. Kept separate from
// BusStats so the pinned golden run digests (which format BusStats
// verbatim) stay byte-identical.
type BusTransfers struct {
	Demand    uint64
	Writeback uint64
	Prefetch  uint64
}

// Total returns the number of granted transfers across all classes.
func (t BusTransfers) Total() uint64 { return t.Demand + t.Writeback + t.Prefetch }

// Utilization returns busy/total, guarding against a zero-length run.
func (b BusStats) Utilization(total sim.Cycle) float64 {
	if total <= 0 {
		return 0
	}
	return float64(b.BusyCycles) / float64(total)
}

// PrefetchShare returns the share of total time spent moving prefetch
// traffic.
func (b BusStats) PrefetchShare(total sim.Cycle) float64 {
	if total <= 0 {
		return 0
	}
	return float64(b.PrefetchCycles) / float64(total)
}

// ULMTStats aggregates the Fig 10 measurements over a run.
type ULMTStats struct {
	MissesProcessed uint64
	MissesDropped   uint64 // queue 2 overflow

	// Sums over processed misses, split into computation and memory
	// stall, all in 1.6 GHz cycles. Response covers the prefetching
	// step only; Occupancy covers prefetching + learning.
	ResponseBusy  sim.Cycle
	ResponseMem   sim.Cycle
	OccupancyBusy sim.Cycle
	OccupancyMem  sim.Cycle

	Instructions uint64 // ULMT instructions executed
	MemAccesses  uint64 // ULMT loads+stores issued to its table
	CacheMisses  uint64 // misses in the memory processor's L1
}

// Add accumulates another memory thread's counters into u, for
// machine-wide totals over several threads or shards.
func (u *ULMTStats) Add(o ULMTStats) {
	u.MissesProcessed += o.MissesProcessed
	u.MissesDropped += o.MissesDropped
	u.ResponseBusy += o.ResponseBusy
	u.ResponseMem += o.ResponseMem
	u.OccupancyBusy += o.OccupancyBusy
	u.OccupancyMem += o.OccupancyMem
	u.Instructions += o.Instructions
	u.MemAccesses += o.MemAccesses
	u.CacheMisses += o.CacheMisses
}

// AvgResponse returns the mean response time per processed miss.
func (u ULMTStats) AvgResponse() float64 {
	if u.MissesProcessed == 0 {
		return 0
	}
	return float64(u.ResponseBusy+u.ResponseMem) / float64(u.MissesProcessed)
}

// AvgOccupancy returns the mean occupancy time per processed miss.
func (u ULMTStats) AvgOccupancy() float64 {
	if u.MissesProcessed == 0 {
		return 0
	}
	return float64(u.OccupancyBusy+u.OccupancyMem) / float64(u.MissesProcessed)
}

// IPC returns instructions per memory-processor cycle. The memory
// processor runs at 800 MHz, i.e. one of its cycles is two 1.6 GHz
// cycles, matching how the paper computes the figure printed on top
// of the Fig 10 bars.
func (u ULMTStats) IPC() float64 {
	total := u.OccupancyBusy + u.OccupancyMem
	if total <= 0 {
		return 0
	}
	memProcCycles := float64(total) / 2
	return float64(u.Instructions) / memProcCycles
}

// ShardAttrib attributes one core's shared-correlation-table traffic
// by the training origin of the table sets it used. Cores run in
// disjoint address regions, so whole miss lines never collide across
// cores — the shared table's *set index* is where their streams
// alias and compete for rows. A set's *owner* is the core whose
// observation last trained it. Emits off a set another core trained
// measure cross-core interaction at the aliasing granularity;
// takeovers (retraining a set last trained by another core) measure
// the table-space pollution a multiprogrammed mix inflicts, the
// effect behind the sharded-vs-private inversion in EXPERIMENTS.md.
type ShardAttrib struct {
	// LocalEmits counts prefetches emitted for this core from rows it
	// trained itself (or fresh rows).
	LocalEmits uint64
	// CrossEmits counts prefetches emitted for this core from rows
	// last trained by a different core's miss stream.
	CrossEmits uint64
	// RowTakeovers counts observations where this core retrained a
	// row last trained by a different core, evicting that core's
	// successor history.
	RowTakeovers uint64
}

// ExecBreakdown attributes execution time the way Figs 7 and 8 do.
type ExecBreakdown struct {
	Busy     sim.Cycle // computation + non-memory pipeline stalls
	UpToL2   sim.Cycle // stall on requests satisfied at L1 or L2
	BeyondL2 sim.Cycle // stall on requests that went to memory
}

// Total returns the run length.
func (e ExecBreakdown) Total() sim.Cycle { return e.Busy + e.UpToL2 + e.BeyondL2 }

// Normalized returns each component as a fraction of base, the way
// the figures normalize every bar to NoPref.
func (e ExecBreakdown) Normalized(base sim.Cycle) (busy, uptoL2, beyondL2 float64) {
	if base <= 0 {
		return 0, 0, 0
	}
	f := float64(base)
	return float64(e.Busy) / f, float64(e.UpToL2) / f, float64(e.BeyondL2) / f
}
