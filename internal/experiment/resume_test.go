package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ulmt/internal/checkpoint"
	"ulmt/internal/core"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

func resumeOptions() Options {
	return Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
}

// checkpointDirRunner builds a runner whose checkpoint directory also
// roots its result cache, as cmd/ulmtsim sets it up when no
// -cache-dir is given.
func checkpointDirRunner(t *testing.T, opt Options, dir string) *Runner {
	t.Helper()
	opt.CheckpointDir = dir
	r := NewRunner(opt)
	r.AttachCache(openTestCache(t, dir, opt))
	return r
}

// checkpointExists reports whether key k has a mid-flight checkpoint
// on disk.
func checkpointExists(r *Runner, k RunKey) bool {
	path, _ := r.checkpointFile(k)
	_, err := os.Stat(path)
	return err == nil
}

// TestSweepAliasIdentity proves the identity-alias rule (aliasOf) is
// sound: the identity-point sweep labels build configurations
// structurally identical to Repl's, and executing them costs no
// additional simulation yet reports under their own labels. The
// worker pool dispatches in plan order, so listing the aliases before
// Repl on several workers makes an alias reach the shared memo first;
// that order must neither deadlock nor simulate twice.
func TestSweepAliasIdentity(t *testing.T) {
	// Recycled successor arenas carry unobservable stale words, so two
	// structurally identical builds are only byte-identical (DeepEqual)
	// when both draw fresh arenas.
	table.FlushArenaPool()
	r := NewRunner(resumeOptions())
	base := r.BuildConfig("Mcf", CfgRepl)
	aliases := []string{SweepLevelsLabel(3), SweepRowsLabel("*1")}
	var aliasKeys []RunKey
	for _, label := range aliases {
		if got := r.BuildConfig("Mcf", label); !reflect.DeepEqual(got, base) {
			t.Errorf("%s builds a different machine than %s", label, CfgRepl)
		}
		aliasKeys = append(aliasKeys, RunKey{App: "Mcf", Label: label})
	}
	repl := RunKey{App: "Mcf", Label: CfgRepl}

	for _, tc := range []struct {
		name string
		keys []RunKey
		jobs int
	}{
		{"ReplFirst", append([]RunKey{repl}, aliasKeys...), 2},
		{"AliasesFirst", append(append([]RunKey(nil), aliasKeys...), repl), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(resumeOptions())
			done := make(chan error, 1)
			go func() { done <- r.ExecuteAll(nil, tc.keys, tc.jobs, nil) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("ExecuteAll: %v", err)
				}
			case <-time.After(5 * time.Minute):
				t.Fatal("ExecuteAll did not return: alias and Repl deadlocked")
			}
			res := r.Run("Mcf", CfgRepl)
			if n := r.RunsComputed(); n != 1 {
				t.Fatalf("computed %d runs, want 1", n)
			}
			if n := r.ForkedRuns(); n != 2 {
				t.Fatalf("aliased %d runs, want 2", n)
			}
			for _, label := range aliases {
				got := r.Run("Mcf", label)
				if got.Label != label {
					t.Errorf("aliased run label = %q, want %q", got.Label, label)
				}
				got.Label = res.Label
				if !reflect.DeepEqual(got, res) {
					t.Errorf("aliased run %s diverges from %s", label, CfgRepl)
				}
			}
			if n := r.RunsComputed(); n != 1 {
				t.Errorf("aliased labels re-simulated: computed %d runs, want 1", n)
			}
		})
	}
}

// TestSharedCheckpointDir proves one checkpoint directory serves any
// invocation shape: seeds 1 and 2 share it without either being
// served the other's results, their checkpoints get distinct files,
// and a checkpoint written before a CacheBehaviorVersion bump is
// discarded and its run recomputed, never resumed.
func TestSharedCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	optAt := func(seed uint64) Options {
		opt := resumeOptions()
		opt.Seed = seed
		opt.Resume = true
		return opt
	}
	r1 := checkpointDirRunner(t, optAt(1), dir)
	res1 := r1.Run(k.App, k.Label)
	r2 := checkpointDirRunner(t, optAt(2), dir)
	res2 := r2.Run(k.App, k.Label)
	if r2.RunsComputed() != 1 || r2.cache.Hits() != 0 {
		t.Fatalf("seed 2 computed %d runs with %d cache hits, want 1 and 0", r2.RunsComputed(), r2.cache.Hits())
	}
	if reflect.DeepEqual(res1, res2) {
		t.Fatal("seeds 1 and 2 produced identical results; the test cannot tell them apart")
	}
	p1, _ := r1.checkpointFile(k)
	p2, stamp2 := r2.checkpointFile(k)
	if p1 == p2 {
		t.Fatalf("seeds 1 and 2 share the checkpoint path %s", p1)
	}

	for seed, want := range map[uint64]core.Results{1: res1, 2: res2} {
		r := checkpointDirRunner(t, optAt(seed), dir)
		if got := r.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d was served another run's results", seed)
		}
		if n := r.RunsComputed(); n != 0 {
			t.Errorf("seed %d warm replay computed %d runs, want 0", seed, n)
		}
	}

	midFlightCheckpoint(t, checkpointDirRunner(t, optAt(2), dir), k, res2)
	cacheVersion++
	defer func() { cacheVersion-- }()
	r := checkpointDirRunner(t, optAt(2), dir)
	path, stamp := r.checkpointFile(k)
	if path != p2 || stamp == stamp2 {
		t.Fatalf("version bump: path moved (%v) or stamp kept (%v); want the same file, a new stamp", path != p2, stamp == stamp2)
	}
	if _, err := checkpoint.Load(path, stamp); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("pre-bump checkpoint under the new stamp: %v, want ErrFingerprint", err)
	}
	if got := r.Run(k.App, k.Label); !reflect.DeepEqual(got, res2) {
		t.Error("run recomputed after a version bump diverges")
	}
	if r.RunsComputed() != 1 || r.cache.Hits() != 0 || r.cache.Stale() == 0 {
		t.Errorf("version bump: computed %d, hits %d, stale %d; want 1, 0 and some", r.RunsComputed(), r.cache.Hits(), r.cache.Stale())
	}
	if checkpointExists(r, k) {
		t.Error("stale checkpoint left in place")
	}
}

// TestResumeSkipsCompleted runs a matrix with a checkpoint directory,
// then resumes it in a fresh runner (a new process, effectively):
// nothing re-simulates and the report bytes are identical.
func TestResumeSkipsCompleted(t *testing.T) {
	opt := resumeOptions()
	dir := t.TempDir()
	r1 := checkpointDirRunner(t, opt, dir)
	keys := r1.PlanRuns([]string{"fig7"})
	if err := r1.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r1.Render(&want, "fig7"); err != nil {
		t.Fatal(err)
	}

	opt.Resume = true
	r2 := checkpointDirRunner(t, opt, dir)
	if err := r2.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatal(err)
	}
	if n := r2.RunsComputed(); n != 0 {
		t.Errorf("resume re-simulated %d runs", n)
	}
	var got bytes.Buffer
	if err := r2.Render(&got, "fig7"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("resumed report differs from original")
	}
}

// midFlightCheckpoint simulates a SIGINT'd run: it stops the key's
// simulation at a mid-run quiescent point and writes the machine
// checkpoint where the runner looks for it.
func midFlightCheckpoint(t *testing.T, r *Runner, k RunKey, want core.Results) {
	t.Helper()
	sys, err := core.NewSystem(r.BuildConfig(k.App, k.Label))
	if err != nil {
		t.Fatal(err)
	}
	ctl := &core.RunControl{CheckpointAfterEvents: want.EventsFired / 2}
	if _, out := sys.RunControlled(k.App, r.Ops(k.App), ctl); out != core.RunCheckpointed {
		t.Skipf("no quiescent point before completion (outcome %v)", out)
	}
	if err := r.saveCheckpoint(sys, k); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFromMidFlightCheckpoint is the kill-and-resume oracle at
// the experiment level: a run interrupted at a mid-flight checkpoint
// and resumed by a fresh runner reports results identical to the
// uninterrupted run, the consumed checkpoint is cleaned up, and the
// finished run is a cache hit for the next invocation.
func TestResumeFromMidFlightCheckpoint(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)

	opt.Resume = true
	dir := t.TempDir()
	r := checkpointDirRunner(t, opt, dir)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	midFlightCheckpoint(t, r, k, want)

	got := r.Run(k.App, k.Label)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run diverges from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if checkpointExists(r, k) {
		t.Error("consumed checkpoint not removed")
	}
	next := checkpointDirRunner(t, opt, dir)
	if got := next.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("replayed run diverges from uninterrupted run")
	}
	if next.RunsComputed() != 0 || next.cache.Hits() != 1 {
		t.Errorf("finished resumed run not a cache hit: computed %d, hits %d", next.RunsComputed(), next.cache.Hits())
	}
}

// TestResumeDiscardsCorruptCheckpoint proves a damaged checkpoint
// cannot wedge recovery: it is discarded and the run starts over,
// still producing correct results.
func TestResumeDiscardsCorruptCheckpoint(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)

	opt.Resume = true
	r := checkpointDirRunner(t, opt, t.TempDir())
	k := RunKey{App: "Mcf", Label: CfgRepl}
	path, _ := r.checkpointFile(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := r.Run(k.App, k.Label)
	if !reflect.DeepEqual(got, want) {
		t.Error("recovery run after corrupt checkpoint diverges")
	}
	if checkpointExists(r, k) {
		t.Error("corrupt checkpoint left in place")
	}
}

// TestSelfHealRetry injects a panic into a run's first attempt and
// requires the runner to retry and succeed.
func TestSelfHealRetry(t *testing.T) {
	opt := resumeOptions()
	opt.MaxRetries = 2
	want := NewRunner(resumeOptions()).Run("Mcf", CfgNoPref)

	r := NewRunner(opt)
	fails := 1
	r.testHook = func(k RunKey) {
		if k.Label == CfgNoPref && fails > 0 {
			fails--
			panic("injected fault")
		}
	}
	got := r.Run("Mcf", CfgNoPref)
	if !reflect.DeepEqual(got, want) {
		t.Error("healed run diverges from clean run")
	}
	if n := r.Retried(); n != 1 {
		t.Errorf("retried = %d, want 1", n)
	}
	if n := r.Failed(); n != 0 {
		t.Errorf("failed = %d, want 0", n)
	}
}

// TestSelfHealExhaustedRetries proves a persistently failing run is
// reported through ExecuteAll's error, not panicked or hidden.
func TestSelfHealExhaustedRetries(t *testing.T) {
	opt := resumeOptions()
	opt.MaxRetries = 1
	r := NewRunner(opt)
	r.testHook = func(k RunKey) { panic("always broken") }
	err := r.ExecuteAll(nil, []RunKey{{App: "Mcf", Label: CfgNoPref}}, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "always broken") {
		t.Fatalf("ExecuteAll error = %v, want the injected failure", err)
	}
	if n := r.Retried(); n != 1 {
		t.Errorf("retried = %d, want 1", n)
	}
	if n := r.Failed(); n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
}

// TestExecuteAllInterrupt cancels the context and requires ExecuteAll
// to stop and report the interruption.
func TestExecuteAllInterrupt(t *testing.T) {
	opt := resumeOptions()
	r := NewRunner(opt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.ExecuteAll(ctx, r.PlanRuns([]string{"fig7"}), 2, nil)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("ExecuteAll after cancel = %v, want interrupted", err)
	}
	if !r.Interrupted() {
		t.Error("runner not marked interrupted")
	}
}

// TestWatchdogTimeout aborts a run past Options.RunTimeout and, with
// no retry budget, reports it failed.
func TestWatchdogTimeout(t *testing.T) {
	opt := resumeOptions()
	opt.RunTimeout = time.Nanosecond
	opt.MaxRetries = 0
	r := NewRunner(opt)
	err := r.ExecuteAll(nil, []RunKey{{App: "Mcf", Label: CfgNoPref}}, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		// A machine fast enough to finish the run before a 1ns timer
		// fires would legitimately pass; don't fail on that.
		if err != nil {
			t.Fatalf("ExecuteAll error = %v, want watchdog", err)
		}
		t.Skip("run finished before the watchdog fired")
	}
	if n := r.Failed(); n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
}
