package core

import (
	"fmt"

	"ulmt/internal/dram"
	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
)

// Sharded ULMT for the multi-core machine (multicore.go).
//
// With N cores on the shared bus, a single memory thread would both
// serialize on one correlation table and bottleneck on one core's
// miss stream. The shard set splits the work by address: one shared
// *logical* algorithm and table, with the rows for a given miss line
// processed by shard h(line). Observations flow in three hops:
//
//  1. Staging: a core's demand miss enters its own queue 2, exactly
//     as in the single-core machine — queue 2 becomes a per-core
//     staging buffer at the controller.
//  2. Delivery: the shard set drains each core's staging buffer in
//     batches (deliverBatch observations per deliverLat-cycle round),
//     runs one memory-thread session per observation, and routes the
//     session's time cost to the owning shard.
//  3. Deposit: generated prefetch addresses land in the owning
//     shard's push ring tagged with the originating core, so the
//     pushed line is later sent to the right core's L2.
//
// The functional work — table reads, table updates, which lines get
// emitted — runs eagerly at delivery time, in global delivery order.
// Delivery order depends only on when observations were staged
// (miss order and deliverLat), never on the shard count, so WHICH
// prefetches are generated is invariant under re-sharding; only where
// their rows live and how long the session queues change. The shard
// itself is a FIFO server for time: a session begins at
// max(deliveryNow, shard.freeAt), its deposit fires at begin +
// response, and the shard stays busy until begin + occupancy. More
// shards means less queueing, which is the scaling knob the
// experiments measure.
//
// Two deliberate modeling deviations from the single-core machine,
// both needed so the emitted-prefetch stream cannot depend on shard
// count (see DESIGN.md "Multi-core and table sharding"):
//
//   - Each shard's memory thread runs against a private DRAM channel
//     (its own bank partition) instead of contending with application
//     traffic in the shared DRAM. Session timing therefore feeds back
//     only through deposit/occupancy latency, never through the app's
//     bank timings.
//   - The emitted-prefetch cross-match drops a push whose line is
//     pending in queue 1 or staged in queue 2, but does NOT remove
//     the queue-2 observation (the single-core path does): removal
//     would make the delivered observation stream depend on deposit
//     timing, which is shard-count-dependent.

// Observation delivery: a kicked round fires deliverLat cycles later
// and drains up to deliverBatch observations from the core's staging
// buffer, the cost of handing a miss from a core's controller queue
// to the shard set.
const (
	deliverBatch           = 4
	deliverLat   sim.Cycle = 4
)

// The shard set's typed self-events.
const (
	// kdDeliver drains one batch from a core's staging buffer:
	// I0 = core id.
	kdDeliver sim.Kind = iota
	// kdDeposit hands a session's emitted prefetches to the
	// originating core: P = *shardJob.
	kdDeposit
)

// shardPush is one entry in a shard's push ring: the prefetched line,
// the core whose L2 wants it, and a global sequence number so a
// core's pushes issue oldest-first across shards.
type shardPush struct {
	line mem.Line
	core int
	seq  uint64
}

// shard is one table shard: its memory thread (private L1 + private
// DRAM channel), its FIFO-server busy horizon, and its push ring.
type shard struct {
	mp     *memproc.MemProc
	ram    *dram.DRAM
	freeAt sim.Cycle
	q3     []shardPush
}

// shardJob carries one session's emitted lines from delivery time to
// deposit time. Pooled: a deposit event always fires, so jobs recycle.
type shardJob struct {
	core  int
	lines []mem.Line
}

// shardSet is the sharded ULMT: one sim.Actor shared by every core.
type shardSet struct {
	eng        *sim.Engine
	cores      []*System
	shards     []shard
	q3cap      int
	issueDelay sim.Cycle

	// thread is the one memory thread every shard runs: sessions run
	// synchronously at delivery, and its emit buffer is copied into
	// the deposit job at once. Its session stalls are one stream for
	// the shared thread, not one per core, charged to inj.
	thread *memThread
	inj    fault.Injected

	// pendingDeliver marks cores with a drain event scheduled, so a
	// burst of staged misses costs one event, not one per miss.
	pendingDeliver []bool
	// inFlight counts scheduled deposit events not yet fired, for the
	// idle test.
	inFlight int

	// seq numbers every accepted push globally.
	seq uint64

	// owner maps each trained table row group (keyed by rowOf, the
	// set index when the shared algorithm exposes one — cores have
	// disjoint address spaces, so full lines never collide; sets do)
	// to the core whose observation last trained it; attrib
	// accumulates the per-core cross-core sharing/pollution counters
	// built from it (stats.ShardAttrib).
	owner  map[uint64]int32
	rowOf  func(mem.Line) uint64
	attrib []stats.ShardAttrib

	jobPool sim.Pool[shardJob]

	// Test hooks: onStage fires when a core stages an observation,
	// onDeliver when the shard set processes it, onEmit for every
	// line the algorithm generates. All nil outside tests.
	onStage   func(core int, line mem.Line)
	onDeliver func(core int, line mem.Line)
	onEmit    func(core, shard int, line mem.Line)
}

// newShardSet builds nsh shards over the shared algorithm. Each
// shard's memory thread gets the Base machine's MemProc configuration
// and a private DRAM channel with the Base DRAM geometry.
func newShardSet(eng *sim.Engine, cfg Config, alg prefetch.Algorithm, nsh int) (*shardSet, error) {
	if alg == nil {
		return nil, fmt.Errorf("core: sharded ULMT needs a shared algorithm")
	}
	if nsh < 1 {
		return nil, fmt.Errorf("core: shard count must be >= 1, got %d", nsh)
	}
	ss := &shardSet{
		eng:        eng,
		shards:     make([]shard, nsh),
		q3cap:      cfg.QueueDepth,
		issueDelay: cfg.MemProc.PrefetchToDRAM,
	}
	ss.thread = newMemThread(alg, cfg, &ss.inj)
	if rk, ok := alg.(interface{ RowKey(mem.Line) uint64 }); ok {
		ss.rowOf = rk.RowKey
	} else {
		ss.rowOf = func(l mem.Line) uint64 { return uint64(l) }
	}
	for i := range ss.shards {
		d, err := dram.New(cfg.DRAM)
		if err != nil {
			return nil, err
		}
		mp, err := memproc.New(cfg.MemProc, d)
		if err != nil {
			return nil, err
		}
		ss.shards[i] = shard{mp: mp, ram: d, q3: make([]shardPush, 0, cfg.QueueDepth)}
	}
	return ss, nil
}

// shardOf hashes a line to its owning shard.
func (ss *shardSet) shardOf(l mem.Line) int {
	h := uint64(l) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(ss.shards)))
}

// kick schedules a delivery round for a core's staging buffer if one
// is not already pending.
func (ss *shardSet) kick(core int) {
	if ss.pendingDeliver[core] {
		return
	}
	ss.pendingDeliver[core] = true
	ss.eng.ScheduleAfter(deliverLat, ss, kdDeliver, sim.Event{I0: uint64(core)})
}

// dropObservation counts a staging overflow against the shard that
// would have processed the line.
func (ss *shardSet) dropObservation(l mem.Line) {
	ss.shards[ss.shardOf(l)].mp.DropObservation()
}

// Fire implements sim.Actor.
func (ss *shardSet) Fire(kind sim.Kind, ev sim.Event) {
	switch kind {
	case kdDeliver:
		core := int(ev.I0)
		ss.pendingDeliver[core] = false
		s := ss.cores[core]
		for i := 0; i < deliverBatch; i++ {
			e, ok := s.q2.Pop()
			if !ok {
				break
			}
			ss.process(core, e.Line)
		}
		if s.q2.Len() > 0 {
			ss.kick(core)
		}
	case kdDeposit:
		job := ev.P.(*shardJob)
		ss.inFlight--
		ss.cores[job.core].depositPrefetches(job.lines)
		ss.jobPool.Put(job)
	}
}

// process runs one observation through the shared memory thread on
// its shard, a FIFO server: the session begins when the shard is
// free, and the shard stays busy until the session's occupancy ends.
func (ss *shardSet) process(core int, line mem.Line) {
	if ss.onDeliver != nil {
		ss.onDeliver(core, line)
	}
	si := ss.shardOf(line)
	sh := &ss.shards[si]
	respAt, occAt := ss.thread.session(sh.mp, line, max(ss.eng.Now(), sh.freeAt))
	sh.freeAt = occAt
	emits := ss.thread.emits
	ss.attribute(core, line, len(emits))
	if ss.onEmit != nil {
		for _, l := range emits {
			ss.onEmit(core, si, l)
		}
	}
	if len(emits) == 0 {
		return
	}
	job := ss.jobPool.Get()
	job.core = core
	job.lines = append(job.lines[:0], emits...)
	ss.inFlight++
	ss.eng.Schedule(respAt, ss, kdDeposit, sim.Event{P: job})
}

// attribute books one processed observation into the per-core
// sharing/pollution counters: emits charge to the training origin of
// the table set the line maps to (local vs another core), and
// retraining a set last trained by another core counts a takeover.
// Runs at delivery time, in global delivery order, so the counters
// are deterministic and shard-count-invariant (the key comes from
// the shared table's geometry, not the shard).
func (ss *shardSet) attribute(core int, line mem.Line, emits int) {
	if ss.attrib == nil {
		return
	}
	key := ss.rowOf(line)
	prev, had := ss.owner[key]
	if had && int(prev) != core {
		ss.attrib[core].RowTakeovers++
		ss.attrib[core].CrossEmits += uint64(emits)
	} else {
		ss.attrib[core].LocalEmits += uint64(emits)
	}
	if ss.owner == nil {
		ss.owner = make(map[uint64]int32)
	}
	if !had || int(prev) != core {
		ss.owner[key] = int32(core)
	}
}

// pushQ3 admits one post-Filter prefetch from the originating core
// into the owning shard's push ring. Duplicate (line, core) pairs are
// dropped (the earlier push will fill that core's L2); a full ring
// counts a drop against the originating core.
func (ss *shardSet) pushQ3(l mem.Line, origin *System) {
	sh := &ss.shards[ss.shardOf(l)]
	for i := range sh.q3 {
		if sh.q3[i].line == l && sh.q3[i].core == origin.coreID {
			return
		}
	}
	if len(sh.q3) >= ss.q3cap {
		origin.q3Drops++
		return
	}
	ss.seq++
	sh.q3 = append(sh.q3, shardPush{line: l, core: origin.coreID, seq: ss.seq})
}

// popPushFor removes and returns the originating core's oldest
// waiting push across every shard. Entries within a shard's ring are
// sequence-ordered, so the first match per shard is that shard's
// oldest.
func (ss *shardSet) popPushFor(core int) (mem.Line, bool) {
	bestShard, bestIdx := -1, -1
	var bestSeq uint64
	for si := range ss.shards {
		q := ss.shards[si].q3
		for i := range q {
			if q[i].core != core {
				continue
			}
			if bestShard < 0 || q[i].seq < bestSeq {
				bestShard, bestIdx, bestSeq = si, i, q[i].seq
			}
			break
		}
	}
	if bestShard < 0 {
		return 0, false
	}
	q := ss.shards[bestShard].q3
	l := q[bestIdx].line
	ss.shards[bestShard].q3 = append(q[:bestIdx], q[bestIdx+1:]...)
	return l, true
}

// cancelPush is the demand cross-match: a demand miss for l from a
// core cancels only that core's waiting push for the line (another
// core's push still targets a different L2).
func (ss *shardSet) cancelPush(l mem.Line, core int) bool {
	sh := &ss.shards[ss.shardOf(l)]
	for i := range sh.q3 {
		if sh.q3[i].line == l && sh.q3[i].core == core {
			sh.q3 = append(sh.q3[:i], sh.q3[i+1:]...)
			return true
		}
	}
	return false
}

// idle reports whether the shard set has no scheduled events and no
// queued pushes, the shard half of MultiSystem.Quiesced. Staged
// observations live in each core's queue 2 and are covered by the
// per-core Quiesced test.
func (ss *shardSet) idle() bool {
	if ss.inFlight != 0 {
		return false
	}
	for _, p := range ss.pendingDeliver {
		if p {
			return false
		}
	}
	for i := range ss.shards {
		if len(ss.shards[i].q3) != 0 {
			return false
		}
	}
	return true
}

// ulmtStats sums the Fig 10 counters across shards; perShard returns
// each shard's own view for the scaling report.
func (ss *shardSet) ulmtStats() stats.ULMTStats {
	var t stats.ULMTStats
	for i := range ss.shards {
		t.Add(ss.shards[i].mp.Stats())
	}
	return t
}

func (ss *shardSet) perShard() []stats.ULMTStats {
	out := make([]stats.ULMTStats, len(ss.shards))
	for i := range ss.shards {
		out[i] = ss.shards[i].mp.Stats()
	}
	return out
}
