package experiment

import (
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/table"
)

// --- Table 1: comparing the algorithms on a ULMT ---

// Table1Row is one algorithm's measured and structural properties.
type Table1Row struct {
	Algorithm string
	// LevelsPrefetched is how many successor levels one miss can
	// trigger prefetches for.
	LevelsPrefetched int
	// TrueMRU reports whether each level holds true-MRU successors.
	TrueMRU bool
	// RowAccessesPrefetch / RowAccessesLearn are measured mean row
	// accesses per miss in each step; prefetch-step accesses require
	// an associative search, learning-step accesses in Replicated do
	// not (pointers).
	RowAccessesPrefetch float64
	RowAccessesLearn    float64
	// SearchesPrefetch counts associative searches in the
	// prefetching step (the response-time driver of Table 1).
	SearchesPrefetch float64
	// RowBytes is the space per row; SpaceFactor the relative space
	// for a constant number of prefetched lines.
	RowBytes int
}

// countingSink tallies table activity without timing.
type countingSink struct {
	touches int
	instrs  int
}

func (c *countingSink) Touch(mem.Addr, int, bool) { c.touches++ }
func (c *countingSink) Instr(n int)               { c.instrs += n }

// Table1 measures the structural comparison of Base, Chain and
// Replicated over a synthetic repeating miss sequence, reproducing
// the paper's Table 1.
func (r *Runner) Table1() []Table1Row {
	// A repeating miss sequence long enough to exercise steady
	// state; any of the app traces would do, but a synthetic one
	// keeps this table independent of workload choice.
	var seq []mem.Line
	for rep := 0; rep < 64; rep++ {
		for i := 0; i < 256; i++ {
			seq = append(seq, mem.Line(1000+i*3))
		}
	}

	rows := 1 << 12
	out := make([]Table1Row, 0, 3)

	{
		t := table.NewBase(table.BaseParams(rows), 0)
		alg := prefetch.NewBase(t)
		pf, ln, se := measureRowAccesses(t.Stats, alg, seq)
		out = append(out, Table1Row{
			Algorithm: "Base", LevelsPrefetched: 1, TrueMRU: true,
			RowAccessesPrefetch: pf, RowAccessesLearn: ln, SearchesPrefetch: se,
			RowBytes: t.RowBytes(),
		})
	}
	{
		p := table.ChainParams(rows)
		t := table.NewBase(p, 0)
		alg := must(prefetch.NewChain(t, p.NumLevels))
		pf, ln, se := measureRowAccesses(t.Stats, alg, seq)
		out = append(out, Table1Row{
			Algorithm: "Chain", LevelsPrefetched: p.NumLevels, TrueMRU: false,
			RowAccessesPrefetch: pf, RowAccessesLearn: ln, SearchesPrefetch: se,
			RowBytes: t.RowBytes(),
		})
	}
	{
		p := table.ReplParams(rows)
		t := table.NewRepl(p, 0)
		alg := prefetch.NewRepl(t)
		pf, ln, se := measureRowAccesses(t.Stats, alg, seq)
		out = append(out, Table1Row{
			Algorithm: "Replicated", LevelsPrefetched: p.NumLevels, TrueMRU: true,
			RowAccessesPrefetch: pf, RowAccessesLearn: ln, SearchesPrefetch: se,
			RowBytes: t.RowBytes(),
		})
	}
	return out
}

// measureRowAccesses runs an algorithm over a miss sequence and
// derives mean row accesses per step from the table's own lookup and
// update statistics.
func measureRowAccesses(stats func() table.Stats, alg prefetch.Algorithm, seq []mem.Line) (prefetchRows, learnRows, searches float64) {
	var sink countingSink
	discard := func(mem.Line) {}
	var lookupsPF, updatesLearn uint64
	for _, m := range seq {
		before := stats()
		alg.Prefetch(m, &sink, discard)
		mid := stats()
		alg.Learn(m, &sink)
		after := stats()
		lookupsPF += mid.Lookups - before.Lookups
		updatesLearn += (after.SuccUpdates - mid.SuccUpdates) + (after.Insertions - mid.Insertions)
	}
	n := float64(len(seq))
	return float64(lookupsPF) / n, float64(updatesLearn) / n, float64(lookupsPF) / n
}

// --- Table 2: applications and correlation table sizes ---

// Table2Row is one application's sizing line.
type Table2Row struct {
	App         string
	Misses      int // observed L2 misses in the trace
	NumRows     int // lowest power of two with <5% replacements
	ReplaceRate float64
	BaseMB      float64
	ChainMB     float64
	ReplMB      float64
}

// Table2 reproduces the sizing columns of the paper's Table 2 for
// our workload instances: NumRows by the <5%-replacement rule and
// the three organizations' footprints (20/12/28 bytes per row).
func (r *Runner) Table2() []Table2Row {
	var out []Table2Row
	for _, app := range r.opt.apps() {
		// The sizing memo carries the trace's miss count, so a warm
		// cached invocation renders this table without extracting the
		// miss trace (or generating the op stream) at all.
		sz := r.sizeRows(app)
		rows, rate := sz.Rows, sz.Rate
		b, c, rp := table.TableSizes(rows)
		out = append(out, Table2Row{
			App: app, Misses: sz.Misses, NumRows: rows, ReplaceRate: rate,
			BaseMB:  float64(b) / (1 << 20),
			ChainMB: float64(c) / (1 << 20),
			ReplMB:  float64(rp) / (1 << 20),
		})
	}
	return out
}

// --- Table 5: customizations ---

// Table5Row describes one customization and its measured effect.
type Table5Row struct {
	App           string
	Customization string
	SpeedupBefore float64 // Conven4+Repl over NoPref
	SpeedupAfter  float64 // Custom over NoPref
}

// Table5 reports the paper's customization experiments: CG with
// Seq1+Repl in Verbose mode, MST and Mcf with NumLevels=4.
func (r *Runner) Table5() []Table5Row {
	specs := []struct{ app, desc string }{
		{"CG", "Seq1+Repl in Verbose mode (Conven4 on)"},
		{"MST", "Repl with NumLevels=4 (Conven4 on)"},
		{"Mcf", "Repl with NumLevels=4 (Conven4 on)"},
	}
	var out []Table5Row
	for _, sp := range specs {
		if !containsStr(r.opt.apps(), sp.app) {
			continue
		}
		base := r.Baseline(sp.app)
		out = append(out, Table5Row{
			App:           sp.app,
			Customization: sp.desc,
			SpeedupBefore: r.Run(sp.app, CfgConvenRepl).Speedup(base),
			SpeedupAfter:  r.Run(sp.app, CfgCustom).Speedup(base),
		})
	}
	return out
}
