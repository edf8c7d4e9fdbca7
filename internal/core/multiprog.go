package core

import (
	"fmt"

	"ulmt/internal/cpu"
	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/stats"
	"ulmt/internal/workload"
)

// Multiprogramming (paper §3.4): several applications time-share the
// main processor; each has its own ULMT with its own correlation
// table, and "the scheduler schedules and preempts both application
// and ULMT as a group". The alternative the paper rejects — all
// applications sharing a single table — "is likely to suffer a lot
// of interference"; RunMulti lets both be measured.

// MultiApp is one application in a multiprogrammed run.
type MultiApp struct {
	Name string
	Ops  []workload.Op
	// ULMT is this application's private memory thread, or nil for
	// no memory-side prefetching. Ignored when MultiConfig.Shared is
	// set.
	ULMT prefetch.Algorithm
}

// MultiConfig describes a multiprogrammed run.
type MultiConfig struct {
	// Base supplies the machine; its ULMT field is ignored (per-app
	// or shared threads are used instead), but MemProc must be
	// configured if any thread runs.
	Base Config
	// Timeslice is the scheduling quantum in cycles.
	Timeslice sim.Cycle
	// SwitchPenalty models the context-switch cost (pipeline drain,
	// kernel work) charged between slices.
	SwitchPenalty sim.Cycle
	// Apps are the co-scheduled applications.
	Apps []MultiApp
	// Shared, if non-nil, replaces every per-app ULMT with one
	// algorithm and one table serving all applications — the
	// interference configuration.
	Shared prefetch.Algorithm
}

// MultiAppResult reports one application's outcome.
type MultiAppResult struct {
	Name       string
	FinishedAt sim.Cycle
	Exec       stats.ExecBreakdown
	Retired    uint64
}

// MultiResults reports a multiprogrammed run.
type MultiResults struct {
	TotalCycles sim.Cycle
	Apps        []MultiAppResult
	// Slices is how many scheduling quanta ran.
	Slices uint64
}

// RunMulti executes the applications round-robin on one machine.
// Virtual address spaces are disjoint (each app's addresses are
// offset into its own region), caches and DRAM are shared, and the
// active ULMT switches with the application.
func RunMulti(mc MultiConfig) (MultiResults, error) {
	if len(mc.Apps) == 0 {
		return MultiResults{}, fmt.Errorf("core: RunMulti needs at least one app")
	}
	if mc.Timeslice <= 0 {
		mc.Timeslice = 500_000
	}

	cfg := mc.Base
	// The System needs a memory processor when any thread runs.
	cfg.ULMT = nil
	if mc.Shared != nil {
		cfg.ULMT = mc.Shared
	} else {
		for _, a := range mc.Apps {
			if a.ULMT != nil {
				cfg.ULMT = a.ULMT
				break
			}
		}
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return MultiResults{}, err
	}

	// Disjoint virtual regions: offset each app's addresses.
	procs := make([]*cpu.Processor, len(mc.Apps))
	finished := make([]bool, len(mc.Apps))
	finishAt := make([]sim.Cycle, len(mc.Apps))
	remaining := len(mc.Apps)
	for i, app := range mc.Apps {
		ops := offsetOps(app.Ops, mem.Addr(uint64(i)<<40))
		procs[i], err = cpu.New(s.eng, cfg.CPU, s, ops)
		if err != nil {
			return MultiResults{}, err
		}
		i := i
		procs[i].Start(func() {
			finished[i] = true
			finishAt[i] = s.eng.Now()
			remaining--
		})
		procs[i].Pause()
	}

	ulmtFor := func(i int) prefetch.Algorithm {
		if mc.Shared != nil {
			return mc.Shared
		}
		return mc.Apps[i].ULMT
	}

	var slices uint64
	current := -1
	var schedule func()
	schedule = func() {
		if remaining == 0 {
			return
		}
		// Preempt the running app and its ULMT as a group.
		if current >= 0 && !finished[current] {
			procs[current].Pause()
		}
		// Pick the next unfinished app round-robin.
		next := current
		for t := 0; t < len(mc.Apps); t++ {
			next = (next + 1) % len(mc.Apps)
			if !finished[next] {
				break
			}
		}
		current = next
		slices++
		// The ULMT switches with the application: pending
		// observations belong to the outgoing app and are cleared.
		s.switchULMT(ulmtFor(current))
		s.eng.After(mc.SwitchPenalty, func() { procs[current].Resume() })
		s.eng.After(mc.SwitchPenalty+mc.Timeslice, schedule)
	}
	s.eng.At(0, schedule)
	s.eng.Run()

	res := MultiResults{Slices: slices}
	for i, app := range mc.Apps {
		res.Apps = append(res.Apps, MultiAppResult{
			Name:       app.Name,
			FinishedAt: finishAt[i],
			Exec:       procs[i].Breakdown(),
			Retired:    procs[i].Retired,
		})
		// Total is when the last application retires, not when the
		// trailing scheduler tick fires.
		if finishAt[i] > res.TotalCycles {
			res.TotalCycles = finishAt[i]
		}
	}
	return res, nil
}

// switchULMT swaps the active memory thread, dropping queued
// observations that belong to the outgoing application.
func (s *System) switchULMT(alg prefetch.Algorithm) {
	s.ulmt.alg = alg
	for {
		if _, ok := s.q2.Pop(); !ok {
			break
		}
	}
}

// offsetOps relocates a workload's virtual addresses into a private
// region. Compute ops pass through untouched.
func offsetOps(ops []workload.Op, base mem.Addr) []workload.Op {
	out := make([]workload.Op, len(ops))
	for i, op := range ops {
		out[i] = op
		if op.Kind != workload.Compute {
			out[i].Addr += base
		}
	}
	return out
}
