package experiment

import (
	"testing"

	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// tinyRunner restricts to three contrasting applications at tiny
// scale so the full pipeline stays fast in unit tests.
func tinyRunner() *Runner {
	return NewRunner(Options{
		Scale: workload.ScaleTiny,
		Apps:  []string{"Mcf", "CG", "Sparse"},
		Seed:  1,
	})
}

func TestRunnerMemoizes(t *testing.T) {
	r := tinyRunner()
	a := r.Run("Mcf", CfgNoPref)
	b := r.Run("Mcf", CfgNoPref)
	if a.Cycles != b.Cycles {
		t.Error("memoized run differs")
	}
	if len(r.Ops("Mcf")) == 0 || len(r.MissTrace("Mcf")) == 0 {
		t.Error("ops/trace empty")
	}
	if r.NumRows("Mcf") < 2 {
		t.Error("sizing failed")
	}
}

// TestNewRunnerResetsArenaCap proves an uncapped Runner (MemBudget 0)
// is uncapped even after a capped Runner ran in the same process: a
// tiny Mcf Repl arena (12 MiB) larger than the earlier 1 MiB cap must
// still be pooled when its run retires it.
func TestNewRunnerResetsArenaCap(t *testing.T) {
	table.FlushArenaPool()
	t.Cleanup(table.FlushArenaPool)
	capped := Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1, MemBudget: 1 << 20}
	NewRunner(capped)
	uncapped := capped
	uncapped.MemBudget = 0
	NewRunner(uncapped).Run("Mcf", CfgRepl)
	if got := table.PooledArenaBytes(); got <= 1<<20 {
		t.Fatalf("pooled %d bytes after an uncapped run, want the Repl arena (> 1 MiB) parked", got)
	}
}

func TestBuildConfigAllLabels(t *testing.T) {
	r := tinyRunner()
	for _, label := range []string{
		CfgNoPref, CfgConven4, CfgBase, CfgChain, CfgRepl, CfgReplMC,
		CfgConvenRepl, CfgConvenReplMC, CfgCustom,
	} {
		cfg := r.BuildConfig("Mcf", label)
		switch label {
		case CfgNoPref:
			if cfg.ULMT != nil || cfg.Conven != nil {
				t.Errorf("%s: prefetchers configured", label)
			}
		case CfgConven4:
			if cfg.Conven == nil || cfg.ULMT != nil {
				t.Errorf("%s: wrong prefetchers", label)
			}
		case CfgBase, CfgChain, CfgRepl, CfgReplMC:
			if cfg.ULMT == nil {
				t.Errorf("%s: no ULMT", label)
			}
		case CfgConvenRepl, CfgConvenReplMC, CfgCustom:
			if cfg.ULMT == nil || cfg.Conven == nil {
				t.Errorf("%s: missing prefetchers", label)
			}
		}
	}
	// CG's customization turns Verbose on.
	if !r.BuildConfig("CG", CfgCustom).Verbose {
		t.Error("CG custom must be Verbose")
	}
	if r.BuildConfig("Mcf", CfgCustom).Verbose {
		t.Error("Mcf custom must not be Verbose")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown label must panic")
		}
	}()
	r.BuildConfig("Mcf", "Bogus")
}

func TestFig5Shapes(t *testing.T) {
	r := tinyRunner()
	rows := r.Fig5()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		for _, alg := range Fig5Algorithms {
			acc := row.Acc[alg]
			if len(acc) == 0 {
				t.Fatalf("%s/%s: no accuracies", row.App, alg)
			}
			for k, a := range acc {
				if a < 0 || a > 1 {
					t.Errorf("%s/%s level %d = %f", row.App, alg, k+1, a)
				}
			}
		}
	}
	// Combined predictors dominate their parts at level 1.
	for _, row := range rows {
		if row.Acc["Seq4+Repl"][0]+1e-9 < row.Acc["Seq4"][0] ||
			row.Acc["Seq4+Repl"][0]+1e-9 < row.Acc["Repl"][0] {
			t.Errorf("%s: combination below its parts", row.App)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	r := tinyRunner()
	for _, row := range r.Fig6() {
		if len(row.Bins) != 4 {
			t.Fatalf("%s: %d bins", row.App, len(row.Bins))
		}
		sum := 0.0
		for _, b := range row.Bins {
			sum += b.Frac
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: bins sum to %f", row.App, sum)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	r := tinyRunner()
	rows := r.Fig7()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Bars) != len(Fig7Configs) {
			t.Fatalf("%s: %d bars", row.App, len(row.Bars))
		}
		for _, bar := range row.Bars {
			total := bar.Busy + bar.UpToL2 + bar.Beyond
			if bar.Config == CfgNoPref && (total < 0.999 || total > 1.001) {
				t.Errorf("%s NoPref normalized total = %f", row.App, total)
			}
			if bar.Speedup <= 0 {
				t.Errorf("%s/%s speedup = %f", row.App, bar.Config, bar.Speedup)
			}
		}
	}
	avgs := r.Fig7Averages()
	if avgs[CfgNoPref] != 1.0 {
		t.Errorf("NoPref average speedup = %f", avgs[CfgNoPref])
	}
}

func TestFig9Shapes(t *testing.T) {
	r := tinyRunner()
	rows := r.Fig9()
	if len(rows) != 2 { // Sparse + Other7Avg (no Tree in the subset)
		t.Fatalf("groups = %d", len(rows))
	}
	for _, row := range rows {
		for _, bar := range row.Bars {
			if bar.Config == CfgNoPref {
				if bar.NonPrefMisses < 0.99 || bar.NonPrefMisses > 1.01 {
					t.Errorf("%s NoPref NonPrefMisses = %f", row.App, bar.NonPrefMisses)
				}
				if bar.Coverage != 0 {
					t.Errorf("%s NoPref coverage = %f", row.App, bar.Coverage)
				}
			}
			if bar.Hits < 0 || bar.Coverage < 0 {
				t.Errorf("%s/%s negative breakdown", row.App, bar.Config)
			}
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	r := tinyRunner()
	bars := r.Fig10()
	if len(bars) != len(Fig10Configs) {
		t.Fatalf("bars = %d", len(bars))
	}
	var repl, replMC Fig10Bar
	for _, b := range bars {
		if b.OccupancyBusy+b.OccupancyMem <= 0 {
			t.Errorf("%s: zero occupancy", b.Config)
		}
		if b.ResponseBusy+b.ResponseMem > b.OccupancyBusy+b.OccupancyMem {
			t.Errorf("%s: response exceeds occupancy", b.Config)
		}
		if b.Config == CfgRepl {
			repl = b
		}
		if b.Config == CfgReplMC {
			replMC = b
		}
	}
	if replMC.ResponseMem <= repl.ResponseMem {
		t.Error("North Bridge response memory time should exceed in-DRAM")
	}
}

func TestFig11Shapes(t *testing.T) {
	r := tinyRunner()
	for _, bar := range r.Fig11() {
		if bar.Utilization < 0 || bar.Utilization > 1 {
			t.Errorf("%s: utilization %f", bar.Config, bar.Utilization)
		}
		recon := bar.BasePart + bar.SpeedupPart + bar.PrefetchPart
		if recon < bar.Utilization-0.05 {
			t.Errorf("%s: decomposition %f << total %f", bar.Config, recon, bar.Utilization)
		}
		if bar.Config == CfgNoPref && bar.PrefetchPart != 0 {
			t.Errorf("NoPref has prefetch traffic %f", bar.PrefetchPart)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	r := tinyRunner()
	rows := r.Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, row := range rows {
		byName[row.Algorithm] = row
	}
	b, c, rp := byName["Base"], byName["Chain"], byName["Replicated"]
	if !b.TrueMRU || c.TrueMRU || !rp.TrueMRU {
		t.Error("TrueMRU flags wrong")
	}
	if c.RowAccessesPrefetch <= b.RowAccessesPrefetch {
		t.Error("Chain must do more prefetch-step row accesses than Base")
	}
	if rp.RowAccessesPrefetch > 1.01 {
		t.Errorf("Replicated prefetch-step rows = %f, want ~1", rp.RowAccessesPrefetch)
	}
	if rp.RowAccessesLearn <= b.RowAccessesLearn {
		t.Error("Replicated must do more learning updates than Base")
	}
	if b.RowBytes != 20 || c.RowBytes != 12 || rp.RowBytes != 28 {
		t.Errorf("row bytes = %d %d %d", b.RowBytes, c.RowBytes, rp.RowBytes)
	}
}

func TestTable2Shapes(t *testing.T) {
	r := tinyRunner()
	for _, row := range r.Table2() {
		if row.NumRows <= 0 || row.Misses <= 0 {
			t.Errorf("%s: %+v", row.App, row)
		}
		if row.ReplaceRate >= 0.05 && row.NumRows < 1<<22 {
			t.Errorf("%s: sizing rule violated: %f at %d rows", row.App, row.ReplaceRate, row.NumRows)
		}
		// 20/12/28-byte rows keep the fixed ratios.
		if row.ChainMB >= row.BaseMB || row.BaseMB >= row.ReplMB {
			t.Errorf("%s: size ordering wrong: %f %f %f", row.App, row.BaseMB, row.ChainMB, row.ReplMB)
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	r := tinyRunner()
	rows := r.Table5()
	if len(rows) != 2 { // CG and Mcf in the subset; MST absent
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.SpeedupBefore <= 0 || row.SpeedupAfter <= 0 {
			t.Errorf("%+v", row)
		}
	}
}
