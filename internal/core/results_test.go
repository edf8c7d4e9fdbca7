package core

import (
	"strings"
	"testing"

	"ulmt/internal/prefetch"
	"ulmt/internal/stats"
	"ulmt/internal/table"
)

// TestResultsCheck breaks each invariant Results.Check holds, one at a
// time, on an otherwise valid Results, and requires a finished run to
// pass.
func TestResultsCheck(t *testing.T) {
	valid := func() Results {
		return Results{
			Cycles:     100,
			Exec:       stats.ExecBreakdown{Busy: 60, UpToL2: 30, BeyondL2: 10},
			PushesToL2: 6,
			Outcomes:   stats.PrefetchOutcomes{Hits: 3, Replaced: 2, Redundant: 1, DelayedHits: 50},
		}
	}
	if err := valid().Check(); err != nil {
		t.Fatalf("valid Results rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Results)
		want   string
	}{
		{"ZeroCycles", func(r *Results) { r.Cycles, r.Exec = 0, stats.ExecBreakdown{} }, "not positive"},
		{"NegativeCycles", func(r *Results) { r.Cycles, r.Exec = -10, stats.ExecBreakdown{Busy: -10} }, "not positive"},
		{"NegativeBusy", func(r *Results) { r.Exec.Busy, r.Exec.UpToL2 = -1, 91 }, "negative"},
		{"NegativeUpToL2", func(r *Results) { r.Exec.UpToL2, r.Exec.BeyondL2 = -5, 45 }, "negative"},
		{"NegativeBeyondL2", func(r *Results) { r.Exec.BeyondL2, r.Exec.Busy = -1, 71 }, "negative"},
		{"BreakdownShort", func(r *Results) { r.Cycles = 200 }, "totals 100"},
		{"BreakdownLong", func(r *Results) { r.Exec.Busy++ }, "totals 101"},
		{"OutcomesExceedPushes", func(r *Results) { r.Outcomes.Redundant++ }, "exceed the 6 pushed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mutate(&r)
			err := r.Check()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check() = %v, want an error containing %q", err, tc.want)
			}
		})
	}

	cfg := DefaultConfig()
	cfg.ULMT = prefetch.NewRepl(table.NewRepl(table.ReplParams(1<<15), TableBase))
	cfg.Conven = mustConven(4, 6)
	r := mustSystem(cfg).Run("Mcf", smokeOps(t, "Mcf"))
	if r.PushesToL2 == 0 {
		t.Fatal("the run pushed nothing; the outcome bound is untested")
	}
	if err := r.Check(); err != nil {
		t.Errorf("finished run fails Check: %v", err)
	}
}
