package report

import (
	"ulmt/internal/core"
)

// FaultTable summarizes what a fault plan actually did to a set of
// runs: every injected-fault class from Results.Faults, plus the
// Sheds and BackoffDrop columns, which print the always-zero
// Results.DegradedSheds and DegradedDrops so the report keeps its
// pinned bytes. With a nil plan every cell is zero — a quick way to
// confirm a run was clean.
func FaultTable(title string, rows []core.Results) Table {
	t := Table{
		Title: title,
		Header: []string{"App", "Config", "ObsDrop", "PushDrop", "PushDelay",
			"Stalls", "StallCyc", "SlowBus", "Spikes", "Remaps", "Sheds", "BackoffDrop"},
	}
	for _, r := range rows {
		f := r.Faults
		t.AddRow(r.App, r.Label, f.ObservationsDropped, f.PushesDropped, f.PushesDelayed,
			f.Stalls, f.StallCycles, f.BusSlowTransfers, f.BankPenalties,
			f.RemapsScheduled, r.DegradedSheds, r.DegradedDrops)
	}
	return t
}
