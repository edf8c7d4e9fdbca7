package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ulmt/internal/core"
	"ulmt/internal/report"
)

// This file renders every experiment as the text report cmd/ulmtsim
// prints. Rendering is strictly a read of memoized results: the
// renderers fetch simulations through Run, so a pre-planned
// ExecuteAll leaves nothing to compute here and the bytes written are
// identical whether the runs were produced serially or by any number
// of workers (TestParallelEquivalence pins this).

// AllOrder is the canonical experiment sequence of `-exp all`,
// matching the paper's presentation order.
var AllOrder = []string{
	"table3", "table4", "table2", "table1", "fig5", "fig6", "fig7",
	"table5", "fig8", "fig9", "fig10", "fig11", "ablation", "sweep",
}

// renderers maps experiment names to their report writers.
var renderers = map[string]func(io.Writer, *Runner){
	"table1": renderTable1, "table2": renderTable2, "table3": renderTable3,
	"table4": renderTable4, "table5": renderTable5,
	"fig5": renderFig5, "fig6": renderFig6, "fig7": renderFig7,
	"fig8": renderFig8, "fig9": renderFig9, "fig10": renderFig10,
	"fig11":    renderFig11,
	"ablation": renderAblation, "sweep": renderSweep, "faults": renderFaults,
	"multicore": renderMulticore,
}

// IsExperiment reports whether name is a renderable experiment.
func IsExperiment(name string) bool {
	_, ok := renderers[name]
	return ok
}

// Experiments returns every renderable experiment name, sorted.
func Experiments() []string {
	out := make([]string, 0, len(renderers))
	for name := range renderers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Render writes one experiment's report, or reports an unknown name.
func (r *Runner) Render(w io.Writer, exp string) error {
	fn, ok := renderers[exp]
	if !ok {
		return fmt.Errorf("experiment: unknown experiment %q (have all, %s)",
			exp, strings.Join(Experiments(), ", "))
	}
	fn(w, r)
	return nil
}

func renderTable1(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Table 1: pair-based correlation algorithms on a ULMT (measured)",
		Header: []string{"Characteristic", "Base", "Chain", "Replicated"},
	}
	rows := r.Table1()
	get := func(name string) Table1Row {
		for _, x := range rows {
			if x.Algorithm == name {
				return x
			}
		}
		return Table1Row{}
	}
	b, c, rp := get("Base"), get("Chain"), get("Replicated")
	t.AddRow("Levels of successors prefetched", b.LevelsPrefetched, c.LevelsPrefetched, rp.LevelsPrefetched)
	t.AddRow("True MRU ordering per level", yn(b.TrueMRU), yn(c.TrueMRU), yn(rp.TrueMRU))
	t.AddRow("Row accesses, prefetch step (search)", report.F2(b.RowAccessesPrefetch), report.F2(c.RowAccessesPrefetch), report.F2(rp.RowAccessesPrefetch))
	t.AddRow("Row updates, learning step (no search)", report.F2(b.RowAccessesLearn), report.F2(c.RowAccessesLearn), report.F2(rp.RowAccessesLearn))
	t.AddRow("Bytes per row", b.RowBytes, c.RowBytes, rp.RowBytes)
	t.Fprint(w)
}

func yn(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

func renderTable2(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Table 2: correlation table sizing (<5% of insertions replace a row)",
		Header: []string{"App", "L2Misses", "NumRows", "ReplRate", "Base(MB)", "Chain(MB)", "Repl(MB)"},
	}
	for _, row := range r.Table2() {
		t.AddRow(row.App, row.Misses, row.NumRows, report.Pct(row.ReplaceRate),
			row.BaseMB, row.ChainMB, row.ReplMB)
	}
	t.Fprint(w)
}

func renderTable3(w io.Writer, r *Runner) {
	cfg := core.DefaultConfig()
	t := report.Table{
		Title:  "Table 3: simulated architecture (1.6 GHz cycles)",
		Header: []string{"Parameter", "Value"},
	}
	t.AddRow("Main processor", fmt.Sprintf("%d-issue, %d pending loads, %d pending stores", cfg.CPU.IssueWidth, cfg.CPU.MaxPendingLoads, cfg.CPU.MaxPendingStores))
	t.AddRow("L1 data", fmt.Sprintf("%dKB, %d-way, %dB lines, %d-cycle hit RT", cfg.L1.SizeBytes>>10, cfg.L1.Assoc, 1<<cfg.L1.Line.Shift(), cfg.L1HitRT))
	t.AddRow("L2 data", fmt.Sprintf("%dKB, %d-way, %dB lines, %d-cycle hit RT", cfg.L2.SizeBytes>>10, cfg.L2.Assoc, 1<<cfg.L2.Line.Shift(), cfg.L2HitRT))
	t.AddRow("Memory RT (row hit)", fmt.Sprintf("%d cycles", cfg.L2HitRT+4+cfg.CtrlOverhead+cfg.IssuePortBusy+cfg.DRAMRowHitLat+32))
	t.AddRow("Memory RT (row miss)", fmt.Sprintf("%d cycles", cfg.L2HitRT+4+cfg.CtrlOverhead+cfg.IssuePortBusy+cfg.DRAMRowMissLat+32))
	t.AddRow("Bus", "split transaction, 8B @ 400MHz (4 cycles/beat)")
	t.AddRow("DRAM", fmt.Sprintf("%d channels x %d banks, %dB rows", cfg.DRAM.Channels, cfg.DRAM.BanksPerChannel, cfg.DRAM.RowBytes))
	t.AddRow("Queues 1-3 depth", cfg.QueueDepth)
	t.AddRow("Filter module", fmt.Sprintf("%d entries, FIFO", cfg.FilterSize))
	t.AddRow("MemProc (in DRAM) RT", "21 (row hit) / 56 (row miss)")
	t.AddRow("MemProc (North Bridge) RT", "65 (row hit) / 100 (row miss), +25 to reach DRAM")
	t.Fprint(w)
}

func renderTable4(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Table 4: prefetching algorithms and parameters",
		Header: []string{"Name", "Implementation", "Parameters"},
	}
	t.AddRow("Base", "ULMT software", "NumSucc=4, Assoc=4")
	t.AddRow("Chain", "ULMT software", "NumSucc=2, Assoc=2, NumLevels=3")
	t.AddRow("Repl", "ULMT software", "NumSucc=2, Assoc=2, NumLevels=3")
	t.AddRow("Seq1", "ULMT software", "NumSeq=1, NumPref=6")
	t.AddRow("Seq4", "ULMT software", "NumSeq=4, NumPref=6")
	t.AddRow("Conven4", "hardware at L1", "NumSeq=4, NumPref=6")
	t.Fprint(w)
}

func renderTable5(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Table 5: algorithm customization (Conven4 on)",
		Header: []string{"App", "Customization", "Conven4+Repl", "Custom"},
	}
	for _, row := range r.Table5() {
		t.AddRow(row.App, row.Customization, row.SpeedupBefore, row.SpeedupAfter)
	}
	t.Fprint(w)
}

func renderFig5(w io.Writer, r *Runner) {
	rows := r.Fig5()
	for lvl := 0; lvl < 3; lvl++ {
		algs := Fig5Algorithms
		if lvl > 0 {
			algs = filterOut(algs, "Base", "Seq4+Base")
		}
		t := report.Table{
			Title:  fmt.Sprintf("Fig 5 (level %d): %% of L2 misses correctly predicted", lvl+1),
			Header: append([]string{"App"}, algs...),
		}
		var avg = make([]float64, len(algs))
		for _, row := range rows {
			cells := []any{row.App}
			for i, a := range algs {
				v := row.Acc[a][lvl]
				avg[i] += v
				cells = append(cells, report.Pct(v))
			}
			t.AddRow(cells...)
		}
		cells := []any{"Average"}
		for i := range algs {
			cells = append(cells, report.Pct(avg[i]/float64(len(rows))))
		}
		t.AddRow(cells...)
		t.Fprint(w)
	}
}

func filterOut(xs []string, drop ...string) []string {
	out := make([]string, 0, len(xs))
	for _, x := range xs {
		skip := false
		for _, d := range drop {
			if x == d {
				skip = true
			}
		}
		if !skip {
			out = append(out, x)
		}
	}
	return out
}

func renderFig6(w io.Writer, r *Runner) {
	rows := r.Fig6()
	if len(rows) == 0 {
		return
	}
	t := report.Table{
		Title:  "Fig 6: time between consecutive L2 misses arriving at memory",
		Header: []string{"App"},
	}
	for _, b := range rows[0].Bins {
		t.Header = append(t.Header, b.Label)
	}
	avg := make([]float64, len(rows[0].Bins))
	for _, row := range rows {
		cells := []any{row.App}
		for i, b := range row.Bins {
			avg[i] += b.Frac
			cells = append(cells, report.Pct(b.Frac))
		}
		t.AddRow(cells...)
	}
	cells := []any{"Average"}
	for i := range avg {
		cells = append(cells, report.Pct(avg[i]/float64(len(rows))))
	}
	t.AddRow(cells...)
	t.Fprint(w)
}

func execTable(w io.Writer, title string, rows []Fig7Row) {
	if len(rows) == 0 {
		return
	}
	t := report.Table{
		Title:  title,
		Header: []string{"App", "Config", "Busy", "UpToL2", "BeyondL2", "Norm.Time", "Speedup"},
	}
	for _, row := range rows {
		for _, bar := range row.Bars {
			t.AddRow(row.App, bar.Config, bar.Busy, bar.UpToL2, bar.Beyond,
				bar.Busy+bar.UpToL2+bar.Beyond, bar.Speedup)
		}
	}
	t.Fprint(w)
}

func renderFig7(w io.Writer, r *Runner) {
	rows := r.Fig7()
	execTable(w, "Fig 7: normalized execution time (memory processor in DRAM)", rows)
	execChart(w, "Fig 7 (bars): normalized execution time", rows)
	avgs := r.Fig7Averages()
	t := report.Table{Title: "Fig 7 averages", Header: []string{"Config", "AvgSpeedup"}}
	for _, c := range Fig7Configs {
		t.AddRow(c, avgs[c])
	}
	t.Fprint(w)
}

// execChart draws each application's bars like the paper's stacked
// figure: Busy at the bottom of the stack, BeyondL2 at the top.
func execChart(w io.Writer, title string, rows []Fig7Row) {
	chart := report.BarChart{
		Title:        title,
		SegmentNames: []string{"Busy", "UpToL2", "BeyondL2"},
		Width:        46,
		Scale:        1.5,
	}
	for _, row := range rows {
		for _, bar := range row.Bars {
			chart.Bars = append(chart.Bars, report.StackedBar{
				Label:    row.App + "/" + bar.Config,
				Segments: []float64{bar.Busy, bar.UpToL2, bar.Beyond},
			})
		}
	}
	chart.Fprint(w)
}

func renderFig8(w io.Writer, r *Runner) {
	execTable(w, "Fig 8: memory processor location (DRAM vs North Bridge)", r.Fig8())
	t := report.Table{Title: "Fig 8 averages", Header: []string{"Config", "AvgSpeedup"}}
	for _, c := range Fig8Configs[1:] {
		t.AddRow(c, r.AverageSpeedup(c))
	}
	t.Fprint(w)
}

func renderFig9(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Fig 9: L2 misses + prefetches, normalized to original misses",
		Header: []string{"Group", "Config", "Hits", "DelayedHits", "NonPrefMiss", "Replaced", "Redundant", "Coverage"},
	}
	for _, row := range r.Fig9() {
		for _, bar := range row.Bars {
			t.AddRow(row.App, bar.Config, bar.Hits, bar.DelayedHits,
				bar.NonPrefMisses, bar.Replaced, bar.Redundant, bar.Coverage)
		}
	}
	t.Fprint(w)
}

func renderFig10(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Fig 10: ULMT response and occupancy (cycles, Busy/Mem split), IPC",
		Header: []string{"Config", "RespBusy", "RespMem", "Resp", "OccBusy", "OccMem", "Occ", "IPC"},
	}
	for _, bar := range r.Fig10() {
		t.AddRow(bar.Config,
			report.F1(bar.ResponseBusy), report.F1(bar.ResponseMem), report.F1(bar.ResponseBusy+bar.ResponseMem),
			report.F1(bar.OccupancyBusy), report.F1(bar.OccupancyMem), report.F1(bar.OccupancyBusy+bar.OccupancyMem),
			bar.IPC)
	}
	t.Fprint(w)
}

func renderFig11(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Fig 11: main memory bus utilization",
		Header: []string{"Config", "Total", "NoPrefPart", "SpeedupPart", "PrefetchPart"},
	}
	for _, bar := range r.Fig11() {
		t.AddRow(bar.Config, report.Pct(bar.Utilization), report.Pct(bar.BasePart),
			report.Pct(bar.SpeedupPart), report.Pct(bar.PrefetchPart))
	}
	t.Fprint(w)
}

func renderAblation(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Ablations: design decisions of DESIGN.md, on " + AblationApp,
		Header: []string{"Mechanism", "Metric", "Paper design", "Ablated"},
	}
	for _, row := range r.Ablations(AblationApp) {
		t.AddRow(row.Name, row.Metric, row.Baseline, row.Ablated)
	}
	t.Fprint(w)
}

func renderSweep(w io.Writer, r *Runner) {
	t := report.Table{
		Title:  "Parameter sensitivity (Repl): NumLevels and NumRows (Mcf, MST)",
		Header: []string{"App", "Param", "Value", "Speedup", "Coverage", "Pushes/Miss"},
	}
	for _, app := range SweepApps {
		for _, pt := range r.SweepNumLevels(app) {
			t.AddRow(pt.App, pt.Param, pt.Value, pt.Speedup, pt.Coverage, pt.PushesPerMiss)
		}
		for _, pt := range r.SweepNumRows(app) {
			t.AddRow(pt.App, pt.Param, pt.Value, pt.Speedup, pt.Coverage, pt.PushesPerMiss)
		}
	}
	t.Fprint(w)
}

// renderFaults runs each application under Repl (plus NoPref as
// control) and prints the injected-fault and degradation counters;
// with no fault plan every cell is zero.
func renderFaults(w io.Writer, r *Runner) {
	var rows []core.Results
	for _, app := range r.Apps() {
		rows = append(rows, r.Run(app, CfgNoPref))
		rows = append(rows, r.Run(app, CfgRepl))
	}
	t := report.FaultTable("Fault injection summary (per run)", rows)
	t.Fprint(w)
}
