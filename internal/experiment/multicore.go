package experiment

import (
	"fmt"
	"io"

	"ulmt/internal/core"
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/report"
	"ulmt/internal/table"
)

// This file renders `-exp multicore`: the machine scaled out to N
// main processors on the shared front-side bus and DRAM, running a
// multiprogrammed mix of the workload kernels. Each mix is rendered
// twice — a NoPref control and a prefetching machine — so the table
// shows what correlation prefetching buys as the bus gets crowded.
//
// Unlike the single-core experiments, multicore runs are not routed
// through the Runner's memoized single-core matrix (RunKey has no
// notion of a machine size); the renderer simulates directly. The
// experiment is intentionally not part of `-exp all`, mirroring the
// "faults" summary.

// multicoreLadder is the default -cores sweep.
var multicoreLadder = []int{2, 4, 8}

// coreTableStride separates per-core private address spaces: core i's
// ops are offset by i<<40, and its private correlation table (Shards
// 0) lives at TableBase + i<<40, mirroring the op-stream offsets so
// per-core tables never alias each other or any application page.
const coreTableStride mem.Addr = 1 << 40

// MulticoreMix assembles and runs an n-core machine over a
// multiprogrammed mix of the configured applications (cycled across
// cores). With prefetching off it is the NoPref control. Shards
// follows Options.Shards: 0 gives each core a private replicated
// table and memory thread; S >= 1 shards one shared table across S
// memory threads.
func (r *Runner) MulticoreMix(n int, withPrefetch bool) (core.MulticoreResults, []string) {
	apps := r.Apps()
	base := core.DefaultConfig()
	base.Seed = r.opt.Seed
	base.Faults = r.opt.Faults

	mc := core.MulticoreConfig{Base: base}
	names := make([]string, 0, n)
	maxRows := 0
	for i := 0; i < n; i++ {
		app := apps[i%len(apps)]
		names = append(names, app)
		if rows := r.NumRows(app); rows > maxRows {
			maxRows = rows
		}
		ca := core.CoreApp{Name: app, Ops: r.Ops(app)}
		if withPrefetch && r.opt.Shards == 0 {
			p := table.ReplParams(r.NumRows(app))
			ca.ULMT = prefetch.NewRepl(table.NewRepl(p, TableBase+coreTableStride*mem.Addr(i)))
		}
		mc.Apps = append(mc.Apps, ca)
	}
	if withPrefetch && r.opt.Shards > 0 {
		mc.Shards = r.opt.Shards
		// The shared table is sized for the largest miss stream in
		// the mix; sharding splits rows across memory threads without
		// changing which prefetches are generated.
		mc.SharedULMT = prefetch.NewRepl(table.NewRepl(table.ReplParams(maxRows), TableBase))
	}
	ms, err := core.NewMultiSystem(mc)
	if err != nil {
		// Options were validated and the mix is built from the
		// registry; a failure here is a programming error.
		panic(fmt.Sprintf("experiment: multicore mix: %v", err))
	}
	res := ms.Run()
	// Feed the host-side accounting the single-core matrix gets from
	// ExecuteAll, so the `# host:` footer and -bench-json records of
	// a multicore invocation report real run/event counts.
	r.computed.Add(1)
	r.eventsFired.Add(res.EventsFired)
	return res, names
}

// renderMulticore prints, for each machine size in the ladder (or the
// single -cores value), per-core and aggregate tables for the NoPref
// control and the prefetching machine side by side.
func renderMulticore(w io.Writer, r *Runner) {
	ladder := multicoreLadder
	if r.opt.Cores > 0 {
		ladder = []int{r.opt.Cores}
	}
	mode := "private per-core ULMTs"
	if r.opt.Shards > 0 {
		mode = fmt.Sprintf("shared table, %d shards", r.opt.Shards)
	}
	for _, n := range ladder {
		noPref, names := r.MulticoreMix(n, false)
		pref, _ := r.MulticoreMix(n, true)

		t := report.Table{
			Title: fmt.Sprintf("Multicore scale-out: %d cores on the shared bus (%s)", n, mode),
			Header: []string{"Core", "App", "NoPrefCycles", "PrefCycles", "Speedup",
				"Misses", "DelayedHits", "Replaced"},
		}
		// Per-core completion times (FinishAt), not the machine-wide
		// end time Results.Cycles reports: on a multiprogrammed mix
		// each core finishes on its own clock.
		for i := range noPref.Cores {
			b := pref.Cores[i]
			t.AddRow(i, names[i], noPref.FinishAt[i], pref.FinishAt[i],
				report.F2(float64(noPref.FinishAt[i])/float64(pref.FinishAt[i])),
				b.DemandMissesToMemory, b.Outcomes.DelayedHits, b.Outcomes.Replaced)
		}
		t.Fprint(w)

		agg := report.Table{
			Title:  fmt.Sprintf("Multicore aggregate: %d cores", n),
			Header: []string{"Metric", "NoPref", "Pref"},
		}
		agg.AddRow("Total cycles (last core)", noPref.TotalCycles, pref.TotalCycles)
		agg.AddRow("Bus busy cycles", noPref.Bus.BusyCycles, pref.Bus.BusyCycles)
		agg.AddRow("Bus transfers (demand)", noPref.BusTransfers.Demand, pref.BusTransfers.Demand)
		agg.AddRow("Bus transfers (prefetch)", noPref.BusTransfers.Prefetch, pref.BusTransfers.Prefetch)
		agg.AddRow("ULMT misses observed", noPref.ULMT.MissesProcessed, pref.ULMT.MissesProcessed)
		agg.Fprint(w)

		// Cross-core attribution of the shared table: who profits from
		// whose training, and who evicts whose rows. Only meaningful
		// when sharding — private tables cannot interact.
		if pref.ShardAttrib != nil {
			at := report.Table{
				Title: fmt.Sprintf("Shared-table cross-core attribution: %d cores", n),
				Header: []string{"Core", "App", "LocalEmits", "CrossEmits",
					"CrossShare", "RowTakeovers"},
			}
			for i, a := range pref.ShardAttrib {
				total := a.LocalEmits + a.CrossEmits
				share := 0.0
				if total > 0 {
					share = float64(a.CrossEmits) / float64(total)
				}
				at.AddRow(i, names[i], a.LocalEmits, a.CrossEmits,
					report.F2(share), a.RowTakeovers)
			}
			at.Fprint(w)
		}
	}
}
