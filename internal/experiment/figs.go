package experiment

import (
	"ulmt/internal/prefetch"
	"ulmt/internal/stats"
	"ulmt/internal/table"
)

// --- Figure 5: prediction accuracy per successor level ---

// Fig5Algorithms are the bar groups of Fig 5, in figure order. Base
// appears only in the Level-1 chart; Seq4+Base likewise.
var Fig5Algorithms = []string{"Seq1", "Seq4", "Base", "Chain", "Repl", "Seq4+Base", "Seq4+Repl"}

// Fig5Row holds one application's prediction accuracies: Acc[alg][k]
// is the fraction of misses correctly predicted at level k+1. Its
// cache entry holds only Acc: the app is part of the entry's key.
type Fig5Row struct {
	App string               `json:"-"`
	Acc map[string][]float64 `json:"acc"`
}

// Fig5 measures, for every application, the fraction of L2 misses
// each algorithm correctly predicts at successor levels 1-3, using
// conflict-free tables (paper §5.1: NumRows=256K, Assoc=4, NumSucc=4,
// no prefetching performed).
func (r *Runner) Fig5() []Fig5Row {
	var out []Fig5Row
	for _, app := range r.opt.apps() {
		out = append(out, r.fig5Row(app))
	}
	return out
}

// fig5Row computes (once) one application's Fig 5 accuracies. The
// derivation runs seven predictors over the full miss trace — the
// most expensive non-simulation work of a report — so with a cache
// attached the finished row is served from disk and a warm invocation
// skips the trace entirely. float64 accuracies round-trip JSON
// exactly, keeping warm reports byte-identical.
func (r *Runner) fig5Row(app string) Fig5Row {
	return r.fig5.get(app, func() Fig5Row {
		row := cachedArtifact(r.cache, cacheKindFig5, app, r.computeFig5Row)
		row.App = app
		return row
	})
}

// computeFig5Row runs the seven Fig 5 predictors over app's miss
// trace.
func (r *Runner) computeFig5Row(app string) Fig5Row {
	const levels = 3
	rows := r.predictorRows()
	big := table.Params{NumRows: rows, Assoc: 4, NumSucc: 4, NumLevels: levels}

	makePredictor := func(alg string) prefetch.Predictor {
		switch alg {
		case "Seq1":
			return prefetch.NewSeqPredictor(1, levels)
		case "Seq4":
			return prefetch.NewSeqPredictor(4, levels)
		case "Base":
			return prefetch.NewBasePredictor(big)
		case "Chain":
			return prefetch.NewChainPredictor(big, levels)
		case "Repl":
			return prefetch.NewReplPredictor(big)
		case "Seq4+Base":
			return prefetch.NewCombinedPredictor("Seq4+Base",
				prefetch.NewSeqPredictor(4, levels), prefetch.NewBasePredictor(big))
		case "Seq4+Repl":
			return prefetch.NewCombinedPredictor("Seq4+Repl",
				prefetch.NewSeqPredictor(4, levels), prefetch.NewReplPredictor(big))
		}
		panic("experiment: unknown Fig 5 algorithm " + alg)
	}

	tr := r.MissTrace(app)
	row := Fig5Row{App: app, Acc: make(map[string][]float64)}
	for _, alg := range Fig5Algorithms {
		p := makePredictor(alg)
		row.Acc[alg] = prefetch.Accuracy(p, tr)
		prefetch.RecyclePredictor(p)
	}
	return row
}

// --- Figure 6: time between L2 misses ---

// Fig6Row is one application's miss-distance histogram.
type Fig6Row struct {
	App  string
	Bins []stats.Bin
}

// Fig6 classifies, per application, the cycles between consecutive
// L2 misses arriving at memory under NoPref, into the paper's bins
// [0,80), [80,200), [200,280), [280,inf).
func (r *Runner) Fig6() []Fig6Row {
	var out []Fig6Row
	for _, app := range r.opt.apps() {
		res := r.Run(app, CfgNoPref)
		out = append(out, Fig6Row{App: app, Bins: res.MissDistance.Bins()})
	}
	return out
}

// --- Figure 7: execution time under each algorithm ---

// Fig7Configs are the bars of Fig 7, in figure order.
var Fig7Configs = []string{CfgNoPref, CfgConven4, CfgBase, CfgChain, CfgRepl, CfgConvenRepl, CfgCustom}

// Fig7Bar is one normalized execution-time bar.
type Fig7Bar struct {
	Config  string
	Busy    float64
	UpToL2  float64
	Beyond  float64
	Speedup float64
}

// Fig7Row holds one application's bars.
type Fig7Row struct {
	App  string
	Bars []Fig7Bar
}

// Fig7 runs every application under every configuration (memory
// processor in the DRAM chip) and normalizes the Busy / UpToL2 /
// BeyondL2 breakdown to NoPref.
func (r *Runner) Fig7() []Fig7Row {
	return r.execFigure(Fig7Configs)
}

// Fig7Averages returns the headline numbers: average speedups for
// each configuration (the paper's 1.32 for Repl, 1.46 for
// Conven4+Repl, 1.53 for Custom).
func (r *Runner) Fig7Averages() map[string]float64 {
	out := make(map[string]float64, len(Fig7Configs))
	for _, cfgName := range Fig7Configs {
		out[cfgName] = r.AverageSpeedup(cfgName)
	}
	return out
}

func (r *Runner) execFigure(configs []string) []Fig7Row {
	var out []Fig7Row
	for _, app := range r.opt.apps() {
		base := r.Baseline(app)
		row := Fig7Row{App: app}
		for _, cfgName := range configs {
			res := r.Run(app, cfgName)
			b, u, m := res.Exec.Normalized(base.Cycles)
			row.Bars = append(row.Bars, Fig7Bar{
				Config: cfgName, Busy: b, UpToL2: u, Beyond: m,
				Speedup: res.Speedup(base),
			})
		}
		out = append(out, row)
	}
	return out
}

// --- Figure 8: memory processor location ---

// Fig8Configs are the bars of Fig 8.
var Fig8Configs = []string{CfgNoPref, CfgConvenRepl, CfgConvenReplMC}

// Fig8 compares the memory processor in the DRAM chip against the
// North Bridge (memory controller) chip.
func (r *Runner) Fig8() []Fig7Row {
	return r.execFigure(Fig8Configs)
}

// --- Figure 9: prefetching effectiveness ---

// Fig9Configs are the bar groups of Fig 9.
var Fig9Configs = []string{CfgNoPref, CfgBase, CfgChain, CfgRepl, CfgConvenRepl, CfgConvenReplMC}

// Fig9Bar is one breakdown of L2 misses + prefetches, normalized to
// the original (NoPref) miss count.
type Fig9Bar struct {
	Config        string
	Hits          float64
	DelayedHits   float64
	NonPrefMisses float64
	Replaced      float64
	Redundant     float64
	Coverage      float64
}

// Fig9Row is one application's (or group's) bars.
type Fig9Row struct {
	App  string
	Bars []Fig9Bar
}

// Fig9 reports the outcome breakdown for Sparse, Tree, and the
// average of the other seven applications, as the paper presents it.
func (r *Runner) Fig9() []Fig9Row {
	apps := r.opt.apps()
	var others []string
	for _, a := range apps {
		if a != "Sparse" && a != "Tree" {
			others = append(others, a)
		}
	}
	var out []Fig9Row
	for _, a := range []string{"Sparse", "Tree"} {
		if containsStr(apps, a) {
			out = append(out, Fig9Row{App: a, Bars: r.fig9Bars([]string{a})})
		}
	}
	if len(others) > 0 {
		out = append(out, Fig9Row{App: "Other7Avg", Bars: r.fig9Bars(others)})
	}
	return out
}

func (r *Runner) fig9Bars(apps []string) []Fig9Bar {
	bars := make([]Fig9Bar, 0, len(Fig9Configs))
	for _, cfgName := range Fig9Configs {
		var agg Fig9Bar
		agg.Config = cfgName
		for _, app := range apps {
			base := float64(r.Baseline(app).DemandMissesToMemory)
			if base == 0 {
				continue
			}
			res := r.Run(app, cfgName)
			o := res.Outcomes
			agg.Hits += float64(o.Hits) / base
			agg.DelayedHits += float64(o.DelayedHits) / base
			agg.NonPrefMisses += float64(o.NonPrefMisses+res.PrefetchReqsToMemory) / base
			agg.Replaced += float64(o.Replaced) / base
			agg.Redundant += float64(o.Redundant) / base
		}
		n := float64(len(apps))
		agg.Hits /= n
		agg.DelayedHits /= n
		agg.NonPrefMisses /= n
		agg.Replaced /= n
		agg.Redundant /= n
		agg.Coverage = agg.Hits + agg.DelayedHits
		bars = append(bars, agg)
	}
	return bars
}

// --- Figure 10: ULMT work load ---

// Fig10Configs are the ULMT algorithms whose response and occupancy
// Fig 10 reports.
var Fig10Configs = []string{CfgBase, CfgChain, CfgRepl, CfgReplMC}

// Fig10Bar is one algorithm's averaged response/occupancy split and
// IPC.
type Fig10Bar struct {
	Config                      string
	ResponseBusy, ResponseMem   float64
	OccupancyBusy, OccupancyMem float64
	IPC                         float64
}

// Fig10 averages the ULMT response and occupancy times (busy vs
// memory-stall split) and its IPC over all applications.
func (r *Runner) Fig10() []Fig10Bar {
	apps := r.opt.apps()
	out := make([]Fig10Bar, 0, len(Fig10Configs))
	for _, cfgName := range Fig10Configs {
		var bar Fig10Bar
		bar.Config = cfgName
		var ipcSum float64
		for _, app := range apps {
			u := r.Run(app, cfgName).ULMT
			if u.MissesProcessed == 0 {
				continue
			}
			n := float64(u.MissesProcessed)
			bar.ResponseBusy += float64(u.ResponseBusy) / n
			bar.ResponseMem += float64(u.ResponseMem) / n
			bar.OccupancyBusy += float64(u.OccupancyBusy) / n
			bar.OccupancyMem += float64(u.OccupancyMem) / n
			ipcSum += u.IPC()
		}
		n := float64(len(apps))
		bar.ResponseBusy /= n
		bar.ResponseMem /= n
		bar.OccupancyBusy /= n
		bar.OccupancyMem /= n
		bar.IPC = ipcSum / n
		out = append(out, bar)
	}
	return out
}

// --- Figure 11: main memory bus utilization ---

// Fig11Configs are the bars of Fig 11.
var Fig11Configs = []string{CfgNoPref, CfgConven4, CfgBase, CfgChain, CfgRepl, CfgConvenRepl, CfgConvenReplMC}

// Fig11Bar decomposes one configuration's bus utilization the way
// the figure does: the NoPref demand utilization, the increase caused
// by the shorter run, and the increase caused by prefetch traffic.
type Fig11Bar struct {
	Config       string
	Utilization  float64 // total
	BasePart     float64 // NoPref utilization
	SpeedupPart  float64 // added by faster execution
	PrefetchPart float64 // added by prefetch traffic
}

// Fig11 averages bus utilization over the applications.
func (r *Runner) Fig11() []Fig11Bar {
	apps := r.opt.apps()
	out := make([]Fig11Bar, 0, len(Fig11Configs))
	for _, cfgName := range Fig11Configs {
		var bar Fig11Bar
		bar.Config = cfgName
		for _, app := range apps {
			base := r.Baseline(app)
			res := r.Run(app, cfgName)
			util := res.BusUtilization
			basePart := base.BusUtilization
			// The paper attributes to prefetching only the traffic
			// that would not exist otherwise: a pushed line that
			// eliminates a miss substitutes for that miss's demand
			// reply, so only useless pushes count as prefetch
			// overhead. The rest of the increase comes from packing
			// the same demand traffic into a shorter run.
			lineCycles := float64(32) // 64 B over the 8 B @ 400 MHz bus
			usefulPush := float64(res.Outcomes.Hits+res.Outcomes.DelayedHits) * lineCycles
			prefPart := (float64(res.Bus.PrefetchCycles) - usefulPush) / float64(res.Cycles)
			if prefPart < 0 {
				prefPart = 0
			}
			speedPart := util - prefPart - basePart
			if speedPart < 0 {
				speedPart = 0
			}
			bar.Utilization += util
			bar.BasePart += basePart
			bar.SpeedupPart += speedPart
			bar.PrefetchPart += prefPart
		}
		n := float64(len(apps))
		bar.Utilization /= n
		bar.BasePart /= n
		bar.SpeedupPart /= n
		bar.PrefetchPart /= n
		out = append(out, bar)
	}
	return out
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
