package table_test

import (
	"testing"

	"ulmt/internal/core"
	"ulmt/internal/table"
	"ulmt/internal/trace"
	"ulmt/internal/workload"
)

// TestSizeRowsRealTraces checks SizeRows bit-exactly against the
// per-candidate replay on the functional miss traces the experiment
// runner sizes. Their physical line addresses use the high address
// bits the synthetic traces of TestSizeRowsMatchesReference and
// FuzzSizeRows never set.
func TestSizeRowsRealTraces(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, s := range []workload.Scale{workload.ScaleTiny, workload.ScaleSmall} {
		for _, w := range workload.All() {
			tr := trace.L2Misses(w.Generate(s), trace.Config{
				L1: cfg.L1, L2: cfg.L2, LinearPages: cfg.LinearPages, Seed: 1,
			})
			gotRows, gotRate := table.SizeRows(tr, 2, 0.05, 1<<10, 1<<22)
			wantRows, wantRate := table.SizeRowsReference(tr, 2, 0.05, 1<<10, 1<<22)
			if gotRows != wantRows || gotRate != wantRate {
				t.Errorf("%s %v (%d misses): got (%d, %v), want (%d, %v)",
					w.Name(), s, len(tr), gotRows, gotRate, wantRows, wantRate)
			}
		}
	}
}
