// Package cpu models the main processor: a 6-issue dynamic
// superscalar running at 1.6 GHz with 8 pending loads and 16 pending
// stores (paper Table 3).
//
// The model is an out-of-order *window* abstraction rather than a
// full pipeline: ops issue in program order at up to IssueWidth per
// cycle; independent loads overlap up to MaxPendingLoads outstanding
// misses; a load marked Dep cannot issue until the most recent load
// completes (a pointer chase); and no op may issue more than Window
// ops past the oldest incomplete load (the reorder-buffer bound).
// This captures what the prefetching study needs — memory-level
// parallelism for independent misses, serialization for dependent
// ones, and the resulting stall time — without simulating functional
// execution.
//
// Stall cycles are attributed to the service level of the request
// that unblocked the processor, yielding the Busy / UpToL2 /
// BeyondL2 split of Figs 7 and 8.
package cpu

import (
	"fmt"

	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
	"ulmt/internal/workload"
)

// Level says where a request was satisfied, for stall attribution.
type Level int

const (
	// LevelL1 is a hit in the L1 data cache.
	LevelL1 Level = iota
	// LevelL2 is a hit in the L2 cache, including hits on lines an
	// in-flight prefetch delivered early.
	LevelL2
	// LevelMem is a request that had to go beyond the L2.
	LevelMem
)

// Completer receives asynchronous memory completions. The id is the
// one the processor passed to Load or Store, so a single long-lived
// Completer (the processor itself) serves every outstanding request
// without a per-request closure.
type Completer interface {
	Complete(id uint64, lvl Level)
}

// Memory is the processor's view of the memory hierarchy. Both calls
// complete asynchronously: done.Complete(id, lvl) fires as a
// simulation event with the level that satisfied the request.
// Implementations must never complete synchronously from within
// Load/Store.
type Memory interface {
	Load(a mem.Addr, id uint64, done Completer)
	Store(a mem.Addr, id uint64, done Completer)
}

// storeIDFlag marks a request id as a store completion. Load ids are
// a simple counter and never reach the flag bit within any feasible
// simulation length.
const storeIDFlag uint64 = 1 << 63

// Config sizes the processor model.
type Config struct {
	IssueWidth       int // ops issued per cycle (paper: 6)
	MaxPendingLoads  int // outstanding loads (paper: 8)
	MaxPendingStores int // outstanding stores (paper: 16)
	Window           int // ROB-like run-ahead bound, in ops
}

// DefaultConfig matches Table 3's main processor.
func DefaultConfig() Config {
	return Config{IssueWidth: 6, MaxPendingLoads: 8, MaxPendingStores: 16, Window: 128}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if c.IssueWidth < 1 {
		return fmt.Errorf("cpu: IssueWidth must be >= 1, got %d", c.IssueWidth)
	}
	if c.MaxPendingLoads < 1 {
		return fmt.Errorf("cpu: MaxPendingLoads must be >= 1, got %d", c.MaxPendingLoads)
	}
	if c.MaxPendingStores < 1 {
		return fmt.Errorf("cpu: MaxPendingStores must be >= 1, got %d", c.MaxPendingStores)
	}
	return nil
}

type blockReason int

const (
	notBlocked blockReason = iota
	blockDep               // waiting for the value of the last load
	blockLoadPorts
	blockStorePorts
	blockWindow
)

type inflightLoad struct {
	id    uint64
	opIdx int
	done  bool
}

// Processor executes one op stream against a Memory.
type Processor struct {
	eng *sim.Engine
	cfg Config
	mem Memory
	ops []workload.Op
	pc  int

	pendingLoads  int
	pendingStores int
	nextLoadID    uint64
	lastLoadID    uint64
	lastLoadDone  bool
	// inflight is a FIFO of loads in issue order; inflightHead indexes
	// the oldest entry (a head-indexed ring, so popping completed
	// heads never reallocates).
	inflight     []inflightLoad
	inflightHead int

	blocked    blockReason
	blockStart sim.Cycle
	blockOnID  uint64
	paused     bool

	// stepAt is the due cycle of the armed step register in windowed
	// mode, which the DomainEngine reads through Armed (window.go).
	stepAt sim.Cycle

	startAt  sim.Cycle
	uptoL2   sim.Cycle
	beyondL2 sim.Cycle
	finished bool
	onDone   func()

	// Retired counts completed ops, a progress metric.
	Retired uint64
	// IssueCycles and ComputeCycles break explicit activity out of
	// the Busy residual, for model diagnostics: issue cycles are
	// cycles the issue loop ran, compute cycles the Work it spent.
	IssueCycles   uint64
	ComputeCycles uint64
	// BlockedByReason accumulates stall time per hazard, and
	// BlockEvents counts stalls, for model diagnostics.
	BlockedByReason [5]sim.Cycle
	BlockEvents     [5]uint64

	// Windowed (domain) execution mode, used by the multi-core
	// machine's conservative time windows (window.go): issue-cycle
	// steps arm a register instead of entering the event queue, and
	// stretches — private advances off the engine clock — probe the
	// L1 through the read-only probe installed by SetWindowed and
	// buffer L1-hit completions in ring/ringHead until their due
	// cycle. Kept at the tail of the struct so the single-core
	// machine's hot fields keep their cache layout.
	windowed bool
	armed    bool
	probe    func(a mem.Addr, write bool) (rt sim.Cycle, hit bool)
	ring     []stretchDone
	ringHead int

	// Stretch exit latches (window.go): a mid-cycle L1 miss or stream
	// retirement observed inside a stretch cannot touch the engine (it
	// runs off-clock), so it is buffered here and committed to the
	// queue at the window barrier.
	strMissed   bool
	strMissAt   sim.Cycle
	strIssued   int
	strFinished bool
	strFinishAt sim.Cycle
}

// New builds a processor over the op stream. Call Start to begin.
func New(eng *sim.Engine, cfg Config, m Memory, ops []workload.Op) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window < cfg.MaxPendingLoads {
		cfg.Window = cfg.MaxPendingLoads * 8
	}
	return &Processor{eng: eng, cfg: cfg, mem: m, ops: ops, lastLoadDone: true}, nil
}

// Start schedules execution; onDone fires when the last op and all
// outstanding requests have completed.
func (p *Processor) Start(onDone func()) {
	p.onDone = onDone
	p.startAt = p.eng.Now()
	p.scheduleStep(0)
}

// The processor's typed self-events.
const (
	// kindStep is an issue-cycle tick.
	kindStep sim.Kind = iota
	// kindDone is an L1-hit completion a stretch retired locally and
	// CommitStretch rematerialized into the queue: I0 = request id
	// (with storeIDFlag for stores). It behaves exactly like the
	// memory system's own completion event for an L1 hit.
	kindDone
	// kindMissResume is a stretch's L1-miss handoff: a stretch that
	// hit an L1 miss at cycle C with `issued` slots already consumed
	// commits this event at C (I0 = issued), and the remainder of the
	// issue cycle runs through the event-driven path on the engine
	// clock.
	kindMissResume
	// kindFinish is a stretch's retirement handoff: the stream fully
	// retired inside a stretch, and the finish callback must run on
	// the engine clock at the retirement cycle.
	kindFinish
)

// scheduleStep enqueues the next issue cycle as a typed self-event:
// the processor is its own sim.Actor, so the issue loop schedules
// allocation-free. In windowed mode the step arms a register instead:
// the DomainEngine dispatches armed steps under the canonical order
// (queue events first at a tie, then lowest core id), and a stretch
// retires them without the shared queue.
func (p *Processor) scheduleStep(d sim.Cycle) {
	if p.windowed {
		p.armed, p.stepAt = true, p.eng.Now()+d
		return
	}
	p.eng.ScheduleAfter(d, p, kindStep, sim.Event{})
}

// Fire implements sim.Actor, dispatching the processor's self-events.
func (p *Processor) Fire(kind sim.Kind, ev sim.Event) {
	switch kind {
	case kindDone:
		p.Complete(ev.I0, LevelL1)
	case kindMissResume:
		// The engine clock sits at the miss cycle; rerun the rest of
		// the issue cycle (starting with the missing op) through the
		// event-driven path.
		p.issueFrom(int(ev.I0))
	case kindFinish:
		p.maybeFinish()
	default: // kindStep
		p.step()
	}
}

// Pause preempts the processor at the next issue boundary: no new
// ops issue until Resume. In-flight memory requests keep completing
// (the timeslice scheduler of a multiprogrammed run preempts the
// core, not the memory system).
func (p *Processor) Pause() { p.paused = true }

// Resume continues execution after a Pause.
func (p *Processor) Resume() {
	if !p.paused {
		return
	}
	p.paused = false
	if p.blocked == notBlocked {
		p.scheduleStep(0)
	}
	// If blocked, the pending completion callback will restart the
	// issue loop as usual.
}

// step runs one issue cycle: up to IssueWidth ops, stopping at a
// compute op (which advances time by its Work) or a hazard.
func (p *Processor) step() {
	if p.finished || p.paused || p.blocked != notBlocked {
		return
	}
	p.issueFrom(0)
}

// issueFrom runs the rest of an issue cycle through the event-driven
// path, starting with `issued` slots already consumed. It is the body
// of step, split out so a stretch can hand over mid-cycle at its
// first L1 miss (kindMissResume) without perturbing issue-width
// accounting.
func (p *Processor) issueFrom(issued int) {
	for issued < p.cfg.IssueWidth && p.pc < len(p.ops) {
		op := &p.ops[p.pc]
		switch op.Kind {
		case workload.Compute:
			p.pc++
			p.Retired++
			w := sim.Cycle(op.Work)
			if w < 1 {
				w = 1
			}
			p.ComputeCycles += uint64(w)
			p.scheduleStep(w)
			return
		case workload.Load:
			if op.Dep && !p.lastLoadDone {
				p.block(blockDep, p.lastLoadID)
				return
			}
			if p.pendingLoads >= p.cfg.MaxPendingLoads {
				p.block(blockLoadPorts, 0)
				return
			}
			if p.windowFull() {
				p.block(blockWindow, 0)
				return
			}
			p.issueLoad(op.Addr)
			p.pc++
			p.Retired++
			issued++
		case workload.Store:
			if p.pendingStores >= p.cfg.MaxPendingStores {
				p.block(blockStorePorts, 0)
				return
			}
			p.issueStore(op.Addr)
			p.pc++
			p.Retired++
			issued++
		}
	}
	if p.pc >= len(p.ops) {
		p.maybeFinish()
		return
	}
	p.IssueCycles++
	p.scheduleStep(1)
}

func (p *Processor) windowFull() bool {
	// Oldest incomplete load bounds run-ahead. Completed heads pop by
	// advancing the ring index; the backing array is reclaimed
	// wholesale when the ring drains or on append (pushInflight).
	for p.inflightHead < len(p.inflight) && p.inflight[p.inflightHead].done {
		p.inflightHead++
	}
	if p.inflightHead == len(p.inflight) {
		p.inflight = p.inflight[:0]
		p.inflightHead = 0
		return false
	}
	return p.pc-p.inflight[p.inflightHead].opIdx >= p.cfg.Window
}

// pushInflight appends to the inflight ring, compacting consumed head
// space instead of growing when the backing array is full: the live
// span is bounded by the window, so steady state never reallocates.
func (p *Processor) pushInflight(e inflightLoad) {
	if len(p.inflight) == cap(p.inflight) && p.inflightHead > 0 {
		n := copy(p.inflight, p.inflight[p.inflightHead:])
		p.inflight = p.inflight[:n]
		p.inflightHead = 0
	}
	p.inflight = append(p.inflight, e)
}

func (p *Processor) issueLoad(a mem.Addr) {
	p.nextLoadID++
	id := p.nextLoadID
	p.lastLoadID = id
	p.lastLoadDone = false
	p.pendingLoads++
	p.pushInflight(inflightLoad{id: id, opIdx: p.pc})
	p.mem.Load(a, id, p)
}

func (p *Processor) issueStore(a mem.Addr) {
	p.pendingStores++
	p.mem.Store(a, storeIDFlag, p)
}

// Complete implements Completer, routing memory completions back to
// the load/store bookkeeping.
func (p *Processor) Complete(id uint64, lvl Level) {
	if id&storeIDFlag != 0 {
		p.storeDone(lvl)
		return
	}
	p.loadDone(id, lvl)
}

// retireLoad is the bookkeeping every load completion shares, on the
// engine clock or in a stretch: it frees a load port and marks load id
// done in the in-flight FIFO. Load ids enter the FIFO consecutively
// and leave it only from the head, and a load leaves only once done,
// so id's entry sits id minus the head's id places past the head.
func (p *Processor) retireLoad(id uint64) {
	p.pendingLoads--
	if id == p.lastLoadID {
		p.lastLoadDone = true
	}
	h := p.inflightHead
	p.inflight[h+int(id-p.inflight[h].id)].done = true
}

func (p *Processor) loadDone(id uint64, lvl Level) {
	p.retireLoad(id)
	switch p.blocked {
	case blockDep:
		if id == p.blockOnID {
			p.unblock(lvl)
		}
	case blockLoadPorts, blockWindow:
		p.unblock(lvl)
	case notBlocked, blockStorePorts:
		// Either running, finished draining, or waiting on stores.
	}
	p.maybeFinish()
}

func (p *Processor) storeDone(lvl Level) {
	p.pendingStores--
	if p.blocked == blockStorePorts {
		p.unblock(lvl)
	}
	p.maybeFinish()
}

func (p *Processor) block(r blockReason, onID uint64) {
	p.blocked = r
	p.blockOnID = onID
	p.blockStart = p.eng.Now()
}

func (p *Processor) unblock(lvl Level) {
	d := p.eng.Now() - p.blockStart
	p.BlockedByReason[p.blocked] += d
	p.BlockEvents[p.blocked]++
	if lvl == LevelMem {
		p.beyondL2 += d
	} else {
		p.uptoL2 += d
	}
	p.blocked = notBlocked
	if !p.paused {
		p.scheduleStep(0)
	}
}

func (p *Processor) maybeFinish() {
	if p.finished || p.pc < len(p.ops) || p.pendingLoads > 0 || p.pendingStores > 0 {
		return
	}
	p.finished = true
	if p.onDone != nil {
		p.onDone()
	}
}

// Finished reports whether the stream fully retired.
func (p *Processor) Finished() bool { return p.finished }

// Breakdown returns the execution-time attribution. Busy is the
// remainder after memory stalls, matching how the paper's figures
// fold computation and non-memory pipeline stalls together.
func (p *Processor) Breakdown() stats.ExecBreakdown {
	total := p.eng.Now() - p.startAt
	busy := total - p.uptoL2 - p.beyondL2
	if busy < 0 {
		busy = 0
	}
	return stats.ExecBreakdown{Busy: busy, UpToL2: p.uptoL2, BeyondL2: p.beyondL2}
}
