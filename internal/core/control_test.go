package core

import (
	"reflect"
	"testing"

	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// ckptOps returns a deterministic op stream long enough to span many
// control poll batches.
func ckptOps(t *testing.T) []workload.Op {
	t.Helper()
	w, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(workload.ScaleTiny)
}

// ckptConfigs enumerates the machine shapes the control tests run: no
// prefetching, each table organization, the sequential ULMT, the
// combined Seq+Repl ULMT, and processor-side/memory-side hardware
// prefetchers alongside.
func ckptConfigs() map[string]func() Config {
	return map[string]func() Config{
		"NoPref": func() Config {
			return DefaultConfig()
		},
		"Base": func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = prefetch.NewBase(table.NewBase(table.BaseParams(1<<12), TableBase))
			return cfg
		},
		"Chain": func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = mustChain(table.NewBase(table.ChainParams(1<<12), TableBase), 3)
			return cfg
		},
		"Repl+Conven": func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = prefetch.NewRepl(table.NewRepl(table.ReplParams(1<<12), TableBase))
			cfg.Conven = mustConven(4, 6)
			return cfg
		},
		"Seq": func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = mustSeq(4, 6, TableBase-4096)
			return cfg
		},
		"Combined+DASP": func() Config {
			cfg := DefaultConfig()
			cfg.ULMT = &prefetch.Combined{
				First:  mustSeq(4, 6, TableBase-4096),
				Second: prefetch.NewRepl(table.NewRepl(table.ReplParams(1<<12), TableBase)),
			}
			cfg.DASP = mustConven(4, 6)
			return cfg
		},
	}
}

// abortAt runs cfg on a fresh machine, aborts it from an event at
// cycle at, and then retires its correlation tables to the arena pool
// the way the experiment runner retires an aborted attempt's.
func abortAt(t *testing.T, cfg Config, ops []workload.Op, at sim.Cycle) RunOutcome {
	t.Helper()
	sys := mustSystem(cfg)
	ctl := &RunControl{}
	sys.Engine().At(at, ctl.Abort)
	_, out := sys.RunControlled("Mcf", ops, ctl)
	prefetch.RecycleTables(cfg.ULMT)
	return out
}

// TestCheckpointResumeEquivalence is the kill-and-resume oracle at
// the machine level. The run cache checkpoints whole runs only, so a
// run stopped mid-flight resumes from its start: for every machine
// shape, a run aborted early, midway and late must report RunAborted,
// and the rerun on a fresh machine, whose tables draw the arenas the
// aborted run recycled, must produce Results identical in every field
// to the uninterrupted run.
func TestCheckpointResumeEquivalence(t *testing.T) {
	ops := ckptOps(t)
	for name, mk := range ckptConfigs() {
		t.Run(name, func(t *testing.T) {
			want := mustSystem(mk()).Run("Mcf", ops)
			if want.EventsFired < 1000 {
				t.Fatalf("baseline fired only %d events; stream too small to test", want.EventsFired)
			}
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				at := sim.Cycle(float64(want.Cycles) * frac)
				if out := abortAt(t, mk(), ops, at); out != RunAborted {
					t.Fatalf("frac %.1f: outcome %v, want RunAborted", frac, out)
				}
				got := mustSystem(mk()).Run("Mcf", ops)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("frac %.1f: rerun after abort diverges:\n got %+v\nwant %+v", frac, got, want)
				}
			}
		})
	}
}

// TestCheckpointChainedResume interrupts the recovery too, as the
// runner's retry loop can when the watchdog aborts a retry: a run
// aborted a quarter of the way through, its rerun aborted halfway
// (drawing the first run's recycled arenas), and a third run to
// completion must still match the uninterrupted run.
func TestCheckpointChainedResume(t *testing.T) {
	ops := ckptOps(t)
	mk := ckptConfigs()["Repl+Conven"]
	want := mustSystem(mk()).Run("Mcf", ops)
	for _, frac := range []float64{0.25, 0.5} {
		at := sim.Cycle(float64(want.Cycles) * frac)
		if out := abortAt(t, mk(), ops, at); out != RunAborted {
			t.Fatalf("frac %.2f: outcome %v, want RunAborted", frac, out)
		}
	}
	if got := mustSystem(mk()).Run("Mcf", ops); !reflect.DeepEqual(got, want) {
		t.Errorf("run after two aborted attempts diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunControlledAbort verifies an abort stops the run without
// producing results.
func TestRunControlledAbort(t *testing.T) {
	ops := ckptOps(t)
	ctl := &RunControl{}
	ctl.Abort()
	_, out := mustSystem(DefaultConfig()).RunControlled("Mcf", ops, ctl)
	if out != RunAborted {
		t.Fatalf("outcome %v, want RunAborted", out)
	}
}

// TestRunControlledNilControl verifies the nil-control path matches
// Run exactly.
func TestRunControlledNilControl(t *testing.T) {
	ops := ckptOps(t)
	mk := ckptConfigs()["Repl+Conven"]
	want := mustSystem(mk()).Run("Mcf", ops)
	got, out := mustSystem(mk()).RunControlled("Mcf", ops, nil)
	if out != RunFinished {
		t.Fatalf("outcome %v", out)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("nil-control results diverge from Run")
	}
}
