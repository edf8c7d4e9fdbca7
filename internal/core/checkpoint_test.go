package core

import (
	"crypto/sha256"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ulmt/internal/checkpoint"
	"ulmt/internal/prefetch"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// ckptOps returns a deterministic op stream heavy enough to cross
// many quiescent points.
func ckptOps(t *testing.T) []workload.Op {
	t.Helper()
	w, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(workload.ScaleTiny)
}

// ckptConfigs enumerates the checkpointable configuration shapes: no
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

// TestCheckpointResumeEquivalence is the kill-and-resume oracle at
// the machine level: a run stopped at a mid-flight quiescent point,
// serialized through the full file format, restored into a fresh
// machine, and continued must produce Results identical in every
// field to the uninterrupted run.
func TestCheckpointResumeEquivalence(t *testing.T) {
	ops := ckptOps(t)
	for name, mk := range ckptConfigs() {
		t.Run(name, func(t *testing.T) {
			want := mustSystem(mk()).Run("Mcf", ops)
			if want.EventsFired < 1000 {
				t.Fatalf("baseline fired only %d events; stream too small to test", want.EventsFired)
			}

			// Stop at several points through the run, including very
			// early and very late.
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				ctl := &RunControl{CheckpointAfterEvents: uint64(float64(want.EventsFired) * frac)}
				sys := mustSystem(mk())
				if !sys.SupportsCheckpoint() {
					t.Fatalf("config unexpectedly unsupported")
				}
				res, out := sys.RunControlled("Mcf", ops, ctl)
				if out == RunFinished {
					// The request landed after the run completed;
					// equivalence is then direct.
					if !reflect.DeepEqual(res, want) {
						t.Fatalf("frac %.1f: finished-run results diverge", frac)
					}
					continue
				}
				if out != RunCheckpointed {
					t.Fatalf("frac %.1f: outcome %v", frac, out)
				}

				fp := sha256.Sum256([]byte("core-test"))
				path := filepath.Join(t.TempDir(), "mid.ckpt")
				if err := sys.WriteCheckpoint(path, fp); err != nil {
					t.Fatalf("frac %.1f: WriteCheckpoint: %v", frac, err)
				}
				fresh := mustSystem(mk())
				got, out2, err := fresh.ResumeCheckpoint("Mcf", ops, path, fp, nil)
				if err != nil {
					t.Fatalf("frac %.1f: resume: %v", frac, err)
				}
				if out2 != RunFinished {
					t.Fatalf("frac %.1f: resumed outcome %v", frac, out2)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("frac %.1f: resumed results diverge:\n got %+v\nwant %+v", frac, got, want)
				}
			}
		})
	}
}

// TestCheckpointChainedResume checkpoints a run, resumes it, and
// checkpoints the resumed run again — a crash during recovery must
// also be recoverable.
func TestCheckpointChainedResume(t *testing.T) {
	ops := ckptOps(t)
	mk := ckptConfigs()["Repl+Conven"]
	want := mustSystem(mk()).Run("Mcf", ops)
	fp := sha256.Sum256([]byte("chained"))
	dir := t.TempDir()

	ctl := &RunControl{CheckpointAfterEvents: want.EventsFired / 4}
	sys := mustSystem(mk())
	_, out := sys.RunControlled("Mcf", ops, ctl)
	if out != RunCheckpointed {
		t.Fatalf("first stop: %v", out)
	}
	p1 := filepath.Join(dir, "one.ckpt")
	if err := sys.WriteCheckpoint(p1, fp); err != nil {
		t.Fatal(err)
	}

	ctl2 := &RunControl{CheckpointAfterEvents: want.EventsFired / 2}
	sys2 := mustSystem(mk())
	_, out2, err := sys2.ResumeCheckpoint("Mcf", ops, p1, fp, ctl2)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != RunCheckpointed {
		t.Fatalf("second stop: %v", out2)
	}
	p2 := filepath.Join(dir, "two.ckpt")
	if err := sys2.WriteCheckpoint(p2, fp); err != nil {
		t.Fatal(err)
	}

	got, out3, err := mustSystem(mk()).ResumeCheckpoint("Mcf", ops, p2, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out3 != RunFinished {
		t.Fatalf("final outcome: %v", out3)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("twice-resumed results diverge:\n got %+v\nwant %+v", got, want)
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

// TestSupportsCheckpointGating verifies the honest refusals: fault
// plans, active prefetching, and closure-backed algorithms.
func TestSupportsCheckpointGating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ULMT = &prefetch.Func{AlgName: "custom"}
	if mustSystem(cfg).SupportsCheckpoint() {
		t.Error("Func algorithm reported checkpointable")
	}
	cfg2 := DefaultConfig()
	cfg2.Active = &ActiveConfig{MaxAhead: 4}
	if mustSystem(cfg2).SupportsCheckpoint() {
		t.Error("active prefetching reported checkpointable")
	}
	if !mustSystem(DefaultConfig()).SupportsCheckpoint() {
		t.Error("default config reported non-checkpointable")
	}
}

// TestResumeGeometryMismatch restores a checkpoint into a machine
// with different cache geometry and requires a descriptive error,
// not a panic or a silent misload.
func TestResumeGeometryMismatch(t *testing.T) {
	ops := ckptOps(t)
	mk := ckptConfigs()["NoPref"]
	base := mustSystem(mk()).Run("Mcf", ops)

	ctl := &RunControl{CheckpointAfterEvents: base.EventsFired / 2}
	sys := mustSystem(mk())
	if _, out := sys.RunControlled("Mcf", ops, ctl); out != RunCheckpointed {
		t.Skip("no quiescent point before completion")
	}
	payload := sys.CheckpointPayload()

	bad := DefaultConfig()
	bad.L2.SizeBytes /= 2
	_, _, err := mustSystem(bad).ResumePayload("Mcf", ops, payload, nil)
	if err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("geometry mismatch error: %v", err)
	}
}

// TestCheckpointRejectsOversizedCount restores a 63-byte, integrity-valid
// checkpoint whose page-map entry count is 1<<40: the restore must
// fail with ErrCorrupt at once instead of looping over entries the
// payload cannot hold.
func TestCheckpointRejectsOversizedCount(t *testing.T) {
	w := checkpoint.NewWriter()
	w.Tag("system")
	w.I64(0) // clock
	w.U64(0) // seq
	w.U64(0) // fired
	w.I64(0) // step event
	w.Tag("pagemap")
	w.U64(0)       // allocation cursor
	w.Int(1 << 40) // page-table entries
	if n := len(w.Bytes()); n != 63 {
		t.Fatalf("payload is %d bytes, want 63", n)
	}
	path := filepath.Join(t.TempDir(), "huge.ckpt")
	var fp [32]byte
	if err := checkpoint.Save(path, fp, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	sys, ops := mustSystem(DefaultConfig()), ckptOps(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := sys.ResumeCheckpoint("Mcf", ops, path, fp, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("resume error %v, want ErrCorrupt", err)
		}
	case <-time.After(time.Second):
		t.Fatal("restore still running after 1s: the entry count is not bounded by the payload")
	}
}
