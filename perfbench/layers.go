package main

import (
	"encoding/json"
	"os"
	"time"

	"ulmt/internal/cache"
	"ulmt/internal/core"
	"ulmt/internal/cpu"
	"ulmt/internal/dram"
	"ulmt/internal/experiment"
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
	"ulmt/internal/table"
	"ulmt/internal/trace"
	"ulmt/internal/workload"
)

// --- spans ---

// span is one timed call into a layer, in seconds since the tracer
// started. Parent is the enclosing span's ID, -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noEnd = func() {}

// begin opens a span and returns the function that closes it. Spans
// nest strictly: close them in reverse order.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noEnd
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// total sums the durations of every span with this name.
func (t *tracer) total(name string) float64 {
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// within sums the spans named name that have an ancestor named root.
func (t *tracer) within(root, name string) float64 {
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name != name {
			continue
		}
		for p := sp.Parent; p >= 0; p = t.spans[p].Parent {
			if t.spans[p].Name == root {
				s += sp.End - sp.Start
				break
			}
		}
	}
	return s
}

// write stores the spans, each with its self time: its duration
// minus the part its children cover.
func (t *tracer) write(path string) error {
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].Self = out[i].End - out[i].Start
	}
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			out[sp.Parent].Self -= sp.End - sp.Start
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// --- simulated per-layer counters ---

// layerCounts sums the simulated counters of every run a pass
// delivered. They repeat exactly at a fixed seed.
type layerCounts struct {
	ops, cycles, events              uint64
	pushes, useful, replaced, conven uint64
	ulmt                             stats.ULMTStats
	filterDropped, q2Drops, q3Drops  uint64
	crossMatched                     uint64
	l1Acc, l1Miss, l2Acc, l2Miss     uint64
	busBusy, busPrefetch             uint64
	dram                             dram.Stats
	crossEmits, takeovers            uint64
	table                            table.Stats
}

// addRun adds one single-core run.
func (c *layerCounts) addRun(r core.Results) {
	c.ops += r.OpsRetired
	c.cycles += uint64(r.Cycles)
	c.events += r.EventsFired
	c.addCore(r)
	c.addULMT(r.ULMT)
	c.busBusy += uint64(r.Bus.BusyCycles)
	c.busPrefetch += uint64(r.Bus.PrefetchCycles)
	c.addDRAM(r.DRAM)
}

// addMachine adds one multi-core run. Bus, DRAM, engine and memory
// thread are shared, so they count once per machine, not per core.
func (c *layerCounts) addMachine(m core.MulticoreResults) {
	for _, r := range m.Cores {
		c.ops += r.OpsRetired
		c.addCore(r)
	}
	c.cycles += uint64(m.TotalCycles)
	c.events += m.EventsFired
	c.addULMT(m.ULMT)
	c.busBusy += uint64(m.Bus.BusyCycles)
	c.busPrefetch += uint64(m.Bus.PrefetchCycles)
	if len(m.Cores) > 0 {
		c.addDRAM(m.Cores[0].DRAM)
	}
	for _, a := range m.ShardAttrib {
		c.crossEmits += a.CrossEmits
		c.takeovers += a.RowTakeovers
	}
}

// addCore adds the counters private to one core.
func (c *layerCounts) addCore(r core.Results) {
	c.pushes += r.PushesToL2
	c.useful += r.Outcomes.Hits + r.Outcomes.DelayedHits
	c.replaced += r.Outcomes.Replaced
	c.conven += r.ConvenIssued
	c.filterDropped += r.FilterDropped
	c.q2Drops += r.Q2Drops
	c.q3Drops += r.Q3Drops
	c.crossMatched += r.CrossMatchedDemand + r.CrossMatchedPush
	c.l1Acc += r.L1.Accesses
	c.l1Miss += r.L1.Misses
	c.l2Acc += r.L2.Accesses
	c.l2Miss += r.L2.Misses
}

func (c *layerCounts) addULMT(u stats.ULMTStats) {
	c.ulmt.MissesProcessed += u.MissesProcessed
	c.ulmt.ResponseBusy += u.ResponseBusy
	c.ulmt.ResponseMem += u.ResponseMem
	c.ulmt.OccupancyBusy += u.OccupancyBusy
	c.ulmt.OccupancyMem += u.OccupancyMem
	c.ulmt.Instructions += u.Instructions
	c.ulmt.MemAccesses += u.MemAccesses
	c.ulmt.CacheMisses += u.CacheMisses
}

func (c *layerCounts) addDRAM(d dram.Stats) {
	c.dram.Accesses += d.Accesses
	c.dram.RowHits += d.RowHits
	c.dram.BankWaits += d.BankWaits
}

// addTable adds one correlation table's counters.
func (c *layerCounts) addTable(s table.Stats) {
	c.table.Lookups += s.Lookups
	c.table.LookupHits += s.LookupHits
	c.table.Replacements += s.Replacements
	c.table.SuccUpdates += s.SuccUpdates
}

func (c *layerCounts) values() map[string]float64 {
	f := func(x uint64) float64 { return float64(x) }
	u := c.ulmt
	return map[string]float64{
		"table.lookups":                f(c.table.Lookups),
		"table.lookup_hit_frac":        ratio(f(c.table.LookupHits), f(c.table.Lookups)),
		"table.replacements":           f(c.table.Replacements),
		"table.succ_updates":           f(c.table.SuccUpdates),
		"prefetch.pushes":              f(c.pushes),
		"prefetch.useful_frac":         ratio(f(c.useful), f(c.pushes)),
		"prefetch.replaced":            f(c.replaced),
		"prefetch.conven_issued":       f(c.conven),
		"memproc.misses_processed":     f(u.MissesProcessed),
		"memproc.instructions":         f(u.Instructions),
		"memproc.mem_accesses":         f(u.MemAccesses),
		"memproc.cache_misses":         f(u.CacheMisses),
		"memproc.avg_response_cycles":  ratio(f(uint64(u.ResponseBusy+u.ResponseMem)), f(u.MissesProcessed)),
		"memproc.avg_occupancy_cycles": ratio(f(uint64(u.OccupancyBusy+u.OccupancyMem)), f(u.MissesProcessed)),
		"queue.filter_dropped":         f(c.filterDropped),
		"queue.q2_drops":               f(c.q2Drops),
		"queue.q3_drops":               f(c.q3Drops),
		"queue.crossmatched":           f(c.crossMatched),
		"cache.l1_accesses":            f(c.l1Acc),
		"cache.l1_miss_frac":           ratio(f(c.l1Miss), f(c.l1Acc)),
		"cache.l2_accesses":            f(c.l2Acc),
		"cache.l2_miss_frac":           ratio(f(c.l2Miss), f(c.l2Acc)),
		"cpu.ops_retired":              f(c.ops),
		"sim.events":                   f(c.events),
		"sim.events_per_op":            ratio(f(c.events), f(c.ops)),
		"bus.utilization":              ratio(f(c.busBusy), f(c.cycles)),
		"bus.prefetch_share":           ratio(f(c.busPrefetch), f(c.cycles)),
		"dram.accesses":                f(c.dram.Accesses),
		"dram.row_hit_frac":            ratio(f(c.dram.RowHits), f(c.dram.Accesses)),
		"dram.bank_wait_cycles":        f(uint64(c.dram.BankWaits)),
		"core.sim_cycles":              f(c.cycles),
		"core.ipc":                     ratio(f(c.ops), f(c.cycles)),
		"core.shard_cross_emits":       f(c.crossEmits),
		"core.row_takeovers":           f(c.takeovers),
	}
}

// --- harness counters ---

// harnessStats is what the experiment layer reports about a Runner.
type harnessStats struct {
	scratch, forked     uint64
	ringMiB             float64
	hits, misses, stale uint64
	fig7Repl            float64
	fig7ConvenRepl      float64
	// replayChecked and replayMatched record the warm-cache replay's
	// output check against the cold render.
	replayChecked, replayMatched bool
}

// harnessOf reads a Runner that has executed at least the fig7 runs.
func harnessOf(r *experiment.Runner) harnessStats {
	avg := r.Fig7Averages()
	return harnessStats{
		scratch: r.ScratchRuns(), forked: r.ForkedRuns(),
		ringMiB:        float64(r.SnapshotRingBytes()) / (1 << 20),
		fig7Repl:       avg[experiment.CfgRepl],
		fig7ConvenRepl: avg[experiment.CfgConvenRepl],
	}
}

func (h harnessStats) values(tr *tracer) map[string]float64 {
	return map[string]float64{
		"experiment.plan_s":                   tr.total("experiment.PlanRuns"),
		"experiment.execute_s":                tr.total("experiment.ExecuteAll"),
		"experiment.render_s":                 tr.total("experiment.Render"),
		"experiment.cache_replay_s":           tr.total("experiment.cache_replay"),
		"experiment.scratch_runs":             float64(h.scratch),
		"experiment.forked_runs":              float64(h.forked),
		"experiment.snapshot_ring_mib":        h.ringMiB,
		"experiment.cache_hits":               float64(h.hits),
		"experiment.cache_misses":             float64(h.misses),
		"experiment.cache_stale":              float64(h.stale),
		"experiment.fig7_repl_speedup":        h.fig7Repl,
		"experiment.fig7_conven_repl_speedup": h.fig7ConvenRepl,
	}
}

// newRunner builds a Runner as cmd/ulmtsim does, with a result cache
// when opt names a directory. The arena pool is flushed first: a new
// Runner installs a new retained-memory ledger, and pooled arenas
// must not straddle two ledgers.
func newRunner(opt experiment.Options) (*experiment.Runner, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	table.FlushArenaPool()
	r := experiment.NewRunner(opt)
	if opt.CacheDir != "" {
		c, err := experiment.OpenCache(opt.CacheDir, opt)
		if err != nil {
			return nil, err
		}
		r.AttachCache(c)
	}
	return r, nil
}

// warmReplay runs exps again through a second Runner on the cache
// directory a cold run just wrote, checking it renders want.
func warmReplay(opt experiment.Options, exps []string, want string, tr *tracer, h *harnessStats) error {
	end := tr.begin("experiment.cache_replay")
	r, err := newRunner(opt)
	if err != nil {
		end()
		return err
	}
	got, _, err := runMatrix(r, exps, nil)
	end()
	if err != nil {
		return err
	}
	c := r.Cache()
	h.hits, h.misses, h.stale = c.Hits(), c.Misses(), c.Stale()
	h.replayChecked, h.replayMatched = true, got == want
	return nil
}

// harnessProbe gives the harness-free workloads their experiment-layer
// numbers: the fig7 plan over the workload's applications at tiny
// scale, cold, then replayed warm.
func harnessProbe(e *benchEnv, apps []string, tr *tracer, h *harnessStats) error {
	opt := experiment.Options{
		Scale: workload.ScaleTiny, Seed: e.seed, Apps: apps, Jobs: 1, MaxRetries: 2,
		CacheDir: e.newDir("probe-cache"), MemBudget: memBudget,
	}
	r, err := newRunner(opt)
	if err != nil {
		return err
	}
	exps := []string{"fig7"}
	digest, _, err := runMatrix(r, exps, tr)
	if err != nil {
		return err
	}
	*h = harnessOf(r)
	return warmReplay(opt, exps, digest, tr, h)
}

// coreProbe times core.NewSystem and System.Run directly, one Repl
// machine per application, for workloads that reach the machine only
// through the Runner. Its tables' counters feed table.*.
func coreProbe(r *experiment.Runner, apps []string, tr *tracer, c *layerCounts) error {
	var probe layerCounts
	for _, app := range apps {
		if _, err := runMachine(r, app, experiment.CfgRepl, tr, &probe); err != nil {
			return err
		}
	}
	c.table = probe.table
	return nil
}

// --- layer probes and replay drivers ---

// predictorRows mirrors the Fig 5 methodology's conflict-free table
// size for a scale.
func predictorRows(s workload.Scale) int {
	if s >= workload.ScaleMedium {
		return 1 << 18
	}
	return 1 << 16
}

// layerProbes times the set-up layers and the replay drivers over the
// workload's own applications, scale and seed.
func layerProbes(b bench, e *benchEnv, tr *tracer) map[string]float64 {
	apps, scale := b.inputs()
	cfg := core.DefaultConfig()
	var nOps, nMem, nMiss, retired uint64
	accHits := 0.0
	for _, app := range apps {
		w, err := workload.ByName(app)
		if err != nil {
			panic(err) // the workload table names only registered apps
		}
		end := tr.begin("workload.Generate")
		ops := w.Generate(scale)
		end()
		end = tr.begin("trace.L2Misses")
		misses := trace.L2Misses(ops, trace.Config{L1: cfg.L1, L2: cfg.L2, LinearPages: cfg.LinearPages, Seed: e.seed})
		end()
		end = tr.begin("table.SizeRows")
		rows, _ := table.SizeRows(misses, 2, 0.05, 1<<10, 1<<22)
		end()

		p := prefetch.NewReplPredictor(table.Params{NumRows: predictorRows(scale), Assoc: 4, NumSucc: 4, NumLevels: 3})
		end = tr.begin("prefetch.Accuracy")
		acc := prefetch.Accuracy(p, misses)
		end()
		prefetch.RecyclePredictor(p)
		accHits += acc[0] * float64(len(misses))

		replayTable(tr, rows, misses)
		nMem += replayCache(tr, cfg.L1, ops)
		retired += replayCPU(tr, ops)
		nOps += uint64(len(ops))
		nMiss += uint64(len(misses))
	}
	return map[string]float64{
		"workload.gen_s":             tr.total("workload.Generate"),
		"workload.ops":               float64(nOps),
		"trace.l2misses_s":           tr.total("trace.L2Misses"),
		"trace.misses":               float64(nMiss),
		"table.sizerows_s":           tr.total("table.SizeRows"),
		"prefetch.accuracy_s":        tr.total("prefetch.Accuracy"),
		"prefetch.repl_level1_acc":   ratio(accHits, float64(nMiss)),
		"table.replay_ns_per_miss":   ratio(tr.total("table.replay")*1e9, float64(nMiss)),
		"cache.replay_ns_per_access": ratio(tr.total("cache.replay")*1e9, float64(nMem)),
		"cpu.retire_ns_per_op":       ratio(tr.total("cpu.replay")*1e9, float64(retired)),
	}
}

// replayTable drives a Replicated table the way the memory thread
// does: look a miss's successor levels up, then learn it.
func replayTable(tr *tracer, rows int, misses []mem.Line) {
	t := table.NewRepl(table.ReplParams(rows), experiment.TableBase)
	var sink table.NullSink
	var view table.LevelView
	end := tr.begin("table.replay")
	for _, m := range misses {
		t.Levels(m, sink, &view)
		t.Learn(m, sink)
	}
	end()
	t.Recycle()
}

// replayCache drives a standalone L1 with the op stream's lines,
// filling every miss. It returns the accesses made.
func replayCache(tr *tracer, cfg cache.Config, ops []workload.Op) uint64 {
	c, err := cache.New(cfg)
	if err != nil {
		panic(err) // core.DefaultConfig's L1 is valid
	}
	var n uint64
	end := tr.begin("cache.replay")
	for _, op := range ops {
		if op.Kind == workload.Compute {
			continue
		}
		n++
		l := mem.LineOf(op.Addr, cfg.Line)
		write := op.Kind == workload.Store
		if !c.Access(l, write).Hit {
			c.Fill(l, write, false)
			for {
				if _, ok := c.PopWB(); !ok {
					break
				}
			}
		}
	}
	end()
	return n
}

// hitMemory is an L1 that always hits after rt cycles: it isolates
// the CPU model's issue and retire loop from the memory system.
type hitMemory struct {
	eng *sim.Engine
	rt  sim.Cycle
}

func (m hitMemory) ProbeL1(mem.Addr, bool) (sim.Cycle, bool) { return m.rt, true }

func (m hitMemory) Load(_ mem.Addr, id uint64, done cpu.Completer) {
	m.eng.After(m.rt, func() { done.Complete(id, cpu.LevelL1) })
}

func (m hitMemory) Store(_ mem.Addr, id uint64, done cpu.Completer) {
	m.eng.After(m.rt, func() { done.Complete(id, cpu.LevelL1) })
}

// replayCPU retires the op stream on the CPU model against hitMemory
// and returns the ops retired.
func replayCPU(tr *tracer, ops []workload.Op) uint64 {
	eng := sim.NewEngine()
	p, err := cpu.New(eng, cpu.DefaultConfig(), hitMemory{eng, core.DefaultConfig().L1HitRT}, ops)
	if err != nil {
		panic(err) // cpu.DefaultConfig is valid
	}
	end := tr.begin("cpu.replay")
	p.Start(nil)
	eng.Run()
	end()
	return p.Retired
}
