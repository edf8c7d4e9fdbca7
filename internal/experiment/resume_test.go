package experiment

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

func resumeOptions() Options {
	return Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
}

// storeFor opens a store for the options in a fresh temp dir.
func storeFor(t *testing.T, opt Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
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

// TestStoreResultRoundTrip proves persisted results reload exactly —
// every field, including the histogram and float derivatives — so a
// resumed invocation renders byte-identical reports.
func TestStoreResultRoundTrip(t *testing.T) {
	opt := resumeOptions()
	r := NewRunner(opt)
	s, _ := storeFor(t, opt)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	res := r.Run(k.App, k.Label)
	if err := s.SaveResult(k, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.LoadResult(k)
	if err != nil || !ok {
		t.Fatalf("LoadResult: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("stored result round-trip diverges:\n got %+v\nwant %+v", got, res)
	}
}

// TestStoreManifestMismatch proves a checkpoint directory refuses
// reuse under different options instead of silently mixing results.
func TestStoreManifestMismatch(t *testing.T) {
	opt := resumeOptions()
	_, dir := storeFor(t, opt)
	other := opt
	other.Seed = 2
	if _, err := OpenStore(dir, other); err == nil {
		t.Fatal("manifest mismatch accepted")
	}
	// Same options re-open fine.
	if _, err := OpenStore(dir, opt); err != nil {
		t.Fatalf("same-options reopen: %v", err)
	}
}

// TestResumeSkipsCompleted runs a matrix with a store, then resumes
// it in a fresh runner (a new process, effectively): nothing
// re-simulates and the report bytes are identical.
func TestResumeSkipsCompleted(t *testing.T) {
	opt := resumeOptions()
	s, dir := storeFor(t, opt)
	r1 := NewRunner(opt)
	r1.AttachStore(s)
	keys := r1.PlanRuns([]string{"fig7"})
	if err := r1.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r1.Render(&want, "fig7"); err != nil {
		t.Fatal(err)
	}

	opt2 := opt
	opt2.Resume = true
	s2, err := OpenStore(dir, opt2)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(opt2)
	r2.AttachStore(s2)
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
// checkpoint where the store expects it.
func midFlightCheckpoint(t *testing.T, r *Runner, s *Store, k RunKey, want core.Results) {
	t.Helper()
	sys, err := core.NewSystem(r.BuildConfig(k.App, k.Label))
	if err != nil {
		t.Fatal(err)
	}
	ctl := &core.RunControl{CheckpointAfterEvents: want.EventsFired / 2}
	if _, out := sys.RunControlled(k.App, r.Ops(k.App), ctl); out != core.RunCheckpointed {
		t.Skipf("no quiescent point before completion (outcome %v)", out)
	}
	if err := sys.WriteCheckpoint(s.CheckpointPath(k), s.Fingerprint()); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFromMidFlightCheckpoint is the kill-and-resume oracle at
// the experiment level: a run interrupted at a mid-flight checkpoint
// and resumed by a fresh runner reports results identical to the
// uninterrupted run, and the consumed checkpoint is cleaned up.
func TestResumeFromMidFlightCheckpoint(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)

	opt.Resume = true
	s, _ := storeFor(t, opt)
	r := NewRunner(opt)
	r.AttachStore(s)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	midFlightCheckpoint(t, r, s, k, want)

	got := r.Run(k.App, k.Label)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run diverges from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if s.HasCheckpoint(k) {
		t.Error("consumed checkpoint not removed")
	}
	if _, ok, err := s.LoadResult(k); err != nil || !ok {
		t.Errorf("completed resumed run not persisted: ok=%v err=%v", ok, err)
	}
}

// TestResumeDiscardsCorruptCheckpoint proves a damaged checkpoint
// cannot wedge recovery: it is discarded and the run starts over,
// still producing correct results.
func TestResumeDiscardsCorruptCheckpoint(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)

	opt.Resume = true
	s, _ := storeFor(t, opt)
	r := NewRunner(opt)
	r.AttachStore(s)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	if err := os.WriteFile(s.CheckpointPath(k), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := r.Run(k.App, k.Label)
	if !reflect.DeepEqual(got, want) {
		t.Error("recovery run after corrupt checkpoint diverges")
	}
	if s.HasCheckpoint(k) {
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
