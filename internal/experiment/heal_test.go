package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

func resumeOptions() Options {
	return Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
}

// cacheDirRunner builds a runner over the result cache rooted at dir,
// as cmd/ulmtsim sets one up for -cache-dir.
func cacheDirRunner(t *testing.T, opt Options, dir string) *Runner {
	t.Helper()
	r := NewRunner(opt)
	r.AttachCache(openTestCache(t, dir, opt))
	return r
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

// TestSharedCacheDir proves one cache directory serves any
// invocation shape: seeds 1 and 2 share it without either being
// served the other's results, and an entry written before a
// CacheBehaviorVersion bump reads as stale and is recomputed.
func TestSharedCacheDir(t *testing.T) {
	dir := t.TempDir()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	optAt := func(seed uint64) Options {
		opt := resumeOptions()
		opt.Seed = seed
		return opt
	}
	res1 := cacheDirRunner(t, optAt(1), dir).Run(k.App, k.Label)
	r2 := cacheDirRunner(t, optAt(2), dir)
	res2 := r2.Run(k.App, k.Label)
	if r2.RunsComputed() != 1 || r2.cache.Hits() != 0 {
		t.Fatalf("seed 2 computed %d runs with %d cache hits, want 1 and 0", r2.RunsComputed(), r2.cache.Hits())
	}
	if reflect.DeepEqual(res1, res2) {
		t.Fatal("seeds 1 and 2 produced identical results; the test cannot tell them apart")
	}

	for seed, want := range map[uint64]core.Results{1: res1, 2: res2} {
		r := cacheDirRunner(t, optAt(seed), dir)
		if got := r.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d was served another run's results", seed)
		}
		if n := r.RunsComputed(); n != 0 {
			t.Errorf("seed %d warm replay computed %d runs, want 0", seed, n)
		}
	}

	cacheVersion++
	defer func() { cacheVersion-- }()
	r := cacheDirRunner(t, optAt(2), dir)
	if got := r.Run(k.App, k.Label); !reflect.DeepEqual(got, res2) {
		t.Error("run recomputed after a version bump diverges")
	}
	if r.RunsComputed() != 1 || r.cache.Hits() != 0 || r.cache.Stale() == 0 {
		t.Errorf("version bump: computed %d, hits %d, stale %d; want 1, 0 and some", r.RunsComputed(), r.cache.Hits(), r.cache.Stale())
	}
}

// TestSharedCheckpointDir checks the layout that lets a directory
// once given to -checkpoint-dir serve as -cache-dir: a completed run
// lives at <dir>/cache/<address>.json, and a mid-flight checkpoint an
// older build left at <dir>/ckpt/<address>.ckpt shares the directory
// without being read, so the run is computed once and then replayed.
func TestSharedCheckpointDir(t *testing.T) {
	opt := resumeOptions()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	want := NewRunner(opt).Run(k.App, k.Label)

	dir := t.TempDir()
	addr := entryAddr(runRef(k), opt.fingerprint())
	leftover := filepath.Join(dir, "ckpt", addr+".ckpt")
	if err := os.MkdirAll(filepath.Dir(leftover), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leftover, []byte("an older build's mid-flight checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	r1 := cacheDirRunner(t, opt, dir)
	if got := r1.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("run beside a leftover checkpoint diverges from the plain run")
	}
	if n := r1.RunsComputed(); n != 1 {
		t.Fatalf("computed %d runs beside a leftover checkpoint, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache", addr+".json")); err != nil {
		t.Fatalf("completed run not cached at <dir>/cache/<address>.json: %v", err)
	}
	r2 := cacheDirRunner(t, opt, dir)
	if got := r2.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("replayed run diverges from the plain run")
	}
	if n := r2.RunsComputed(); n != 0 {
		t.Errorf("replay computed %d runs, want 0", n)
	}
}

// finishedRuns lists the keys r completed with results. Call it only
// after ExecuteAll has returned, when every memo entry is settled.
func finishedRuns(r *Runner) map[RunKey]bool {
	r.runs.mu.Lock()
	defer r.runs.mu.Unlock()
	out := make(map[RunKey]bool)
	for k, e := range r.runs.m {
		if e.v.err == nil {
			out[k] = true
		}
	}
	return out
}

// TestInterruptedMatrixReplays is the interrupt-recovery oracle: a
// matrix cancelled after its k-th completed run leaves every finished
// run in the cache, and a fresh runner over the same directory (a new
// process, effectively) replays them, computes only the rest, and
// renders the uninterrupted report byte for byte.
func TestInterruptedMatrixReplays(t *testing.T) {
	opt := resumeOptions()
	keys := NewRunner(opt).PlanRuns([]string{"fig7"})
	const k = 2
	if len(keys) <= k+1 {
		t.Fatalf("plan has %d keys; the test needs more than %d", len(keys), k+1)
	}
	var want bytes.Buffer
	if err := NewRunner(opt).Render(&want, "fig7"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	r1 := cacheDirRunner(t, opt, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	last := 0
	err := r1.ExecuteAll(ctx, keys, 1, func(completed, total int) {
		last = completed
		if completed == k {
			cancel()
		}
	})
	if err == nil || !r1.Interrupted() {
		t.Fatalf("cancelled matrix returned %v, interrupted %v", err, r1.Interrupted())
	}
	done := finishedRuns(r1)
	if len(done) < k || len(done) >= len(keys) {
		t.Fatalf("interrupted matrix finished %d of %d runs, want at least %d and not all", len(done), len(keys), k)
	}
	// Progress counts only runs that returned: keys skipped or aborted
	// by the interrupt must not advance it.
	if last != len(done) {
		t.Errorf("last progress report %d, want the %d finished runs", last, len(done))
	}

	r2 := cacheDirRunner(t, opt, dir)
	computed := make(map[RunKey]int)
	r2.testHook = func(key RunKey) { computed[key]++ }
	if err := r2.ExecuteAll(nil, keys, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Every key is a cache hit (finished before the interrupt), a
	// computation on replay, or an identity alias; none is computed
	// twice.
	for _, key := range keys {
		_, alias := aliasOf(key)
		switch {
		case done[key] && computed[key] != 0:
			t.Errorf("%s/%s finished before the interrupt but was computed again", key.App, key.Label)
		case computed[key] > 1:
			t.Errorf("%s/%s computed %d times on replay", key.App, key.Label, computed[key])
		case !done[key] && computed[key] == 0 && !alias:
			t.Errorf("%s/%s neither replayed nor computed", key.App, key.Label)
		}
	}
	if n := int(r2.RunsComputed()); n != len(computed) {
		t.Errorf("replay computed %d runs, its hook saw %d", n, len(computed))
	}
	if h := r2.cache.Hits(); h < uint64(len(done)) {
		t.Errorf("replay served %d cache hits for %d finished runs", h, len(done))
	}
	var got bytes.Buffer
	if err := r2.Render(&got, "fig7"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("report after interrupt and replay differs from the uninterrupted one")
	}
}

// TestRerunAfterMidFlightInterrupt interrupts a run in flight. The
// cache takes only completed runs, so the aborted run must leave no
// entry; the next runner over the directory reruns it from its
// start, matches the uninterrupted run and caches it, and a third
// runner replays it without simulating.
func TestRerunAfterMidFlightInterrupt(t *testing.T) {
	opt := resumeOptions()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	want := NewRunner(opt).Run(k.App, k.Label)

	dir := t.TempDir()
	r1 := cacheDirRunner(t, opt, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The hook runs just before the run registers its control;
	// cancel once it has, so the abort reaches a starting or running
	// simulation.
	stop := make(chan struct{})
	r1.testHook = func(RunKey) {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				r1.mu.Lock()
				_, running := r1.active[k]
				r1.mu.Unlock()
				if running {
					cancel()
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	err := r1.ExecuteAll(ctx, []RunKey{k}, 1, nil)
	close(stop)
	if err == nil || !r1.Interrupted() || r1.RunsComputed() != 0 {
		t.Fatalf("run cancelled in flight returned %v, interrupted %v, computed %d", err, r1.Interrupted(), r1.RunsComputed())
	}
	if _, ok := openTestCache(t, dir, opt).LoadRun(k); ok {
		t.Fatal("the aborted run left a cache entry")
	}

	r2 := cacheDirRunner(t, opt, dir)
	if got := r2.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Errorf("rerun diverges from the uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if n := r2.RunsComputed(); n != 1 {
		t.Errorf("rerun computed %d runs, want 1", n)
	}
	r3 := cacheDirRunner(t, opt, dir)
	if got := r3.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("replayed run diverges from the uninterrupted run")
	}
	if r3.RunsComputed() != 0 || r3.cache.Hits() == 0 {
		t.Errorf("finished rerun not a cache hit: computed %d, hits %d", r3.RunsComputed(), r3.cache.Hits())
	}
}

// TestRerunOverwritesTornEntry reruns over an entry that cannot be
// trusted: the run's entry cut to half its length, with the temp file
// of a writer killed before its rename beside it. The next runner
// must count the entry stale, recompute the run to the original
// result and overwrite the entry in place, so a third runner replays
// it without simulating.
func TestRerunOverwritesTornEntry(t *testing.T) {
	opt := resumeOptions()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	dir := t.TempDir()
	r1 := cacheDirRunner(t, opt, dir)
	want := r1.Run(k.App, k.Label)

	path := r1.cache.path(runRef(k))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(path), ".tmp-cache-killed"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := cacheDirRunner(t, opt, dir)
	if got := r2.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("recomputed run diverges from the original")
	}
	if r2.RunsComputed() != 1 || r2.cache.Stale() == 0 {
		t.Errorf("torn entry: computed %d, stale %d; want 1 and some", r2.RunsComputed(), r2.cache.Stale())
	}
	r3 := cacheDirRunner(t, opt, dir)
	if got := r3.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("replayed run diverges from the original")
	}
	if r3.RunsComputed() != 0 || r3.cache.Stale() != 0 {
		t.Errorf("torn entry not overwritten: computed %d, stale %d; want 0 and 0", r3.RunsComputed(), r3.cache.Stale())
	}
}

// checkPanicFailsOnce executes Mcf/NoPref under a hook that panics
// with msg on the calls panicAt selects, and requires the run to be
// attempted once and reported at once: the hook fires once, Failed is
// 1, ExecuteAll returns sooner than the 50 ms the smallest retry
// back-off used to sleep, and its error names the key and the panic.
// MaxRetries is set to show it is ignored.
func checkPanicFailsOnce(t *testing.T, panicAt func(call int) bool, msg string) {
	t.Helper()
	opt := resumeOptions()
	opt.MaxRetries = 2
	r := NewRunner(opt)
	calls := 0
	r.testHook = func(RunKey) {
		calls++
		if panicAt(calls) {
			panic(msg)
		}
	}
	start := time.Now()
	err := r.ExecuteAll(nil, []RunKey{{App: "Mcf", Label: CfgNoPref}}, 1, nil)
	elapsed := time.Since(start)
	if calls != 1 {
		t.Errorf("hook fired %d times, want 1", calls)
	}
	if n := r.Failed(); n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
	if elapsed >= 50*time.Millisecond {
		t.Errorf("failing run took %s to report, want no back-off", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "Mcf/"+CfgNoPref) || !strings.Contains(err.Error(), msg) {
		t.Errorf("ExecuteAll error = %v, want one naming Mcf/%s and %q", err, CfgNoPref, msg)
	}
}

// TestSelfHealRetry injects a panic into a run's first attempt only.
// A second attempt would succeed, but simulations are deterministic,
// so the runner never makes one: the run fails once and is reported.
func TestSelfHealRetry(t *testing.T) {
	checkPanicFailsOnce(t, func(call int) bool { return call == 1 }, "injected fault")
}

// TestSelfHealExhaustedRetries proves a persistently failing run is
// attempted once and reported through ExecuteAll's error, not
// panicked, retried or hidden.
func TestSelfHealExhaustedRetries(t *testing.T) {
	checkPanicFailsOnce(t, func(int) bool { return true }, "always broken")
}

// TestExecuteAllInterrupt cancels the context and requires ExecuteAll
// to stop, report the interruption, and run no key.
func TestExecuteAllInterrupt(t *testing.T) {
	opt := resumeOptions()
	r := NewRunner(opt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var fired atomic.Int64
	err := r.ExecuteAll(ctx, r.PlanRuns([]string{"fig7"}), 2, func(int, int) { fired.Add(1) })
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("ExecuteAll after cancel = %v, want interrupted", err)
	}
	if !r.Interrupted() {
		t.Error("runner not marked interrupted")
	}
	// No key ran, so progress never advanced.
	if n := fired.Load(); n != 0 {
		t.Errorf("pre-cancelled matrix fired onDone %d times, want 0", n)
	}
}

// TestWatchdogTimeout aborts a run past Options.RunTimeout and
// reports it failed.
func TestWatchdogTimeout(t *testing.T) {
	opt := resumeOptions()
	opt.RunTimeout = time.Nanosecond
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
