package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunKey names one simulation of the experiment matrix: an
// application under a labeled configuration.
type RunKey struct {
	App   string
	Label string
}

// ExperimentRuns declares the full set of simulations the named
// experiment reads, in rendering order. Experiments that only consume
// functional traces or structural measurements (table1-table4, fig5)
// declare no runs. The renderers read results exclusively through
// Run, so executing these keys first means rendering touches only
// completed results — TestPlanCoversRender enforces that.
func (r *Runner) ExperimentRuns(exp string) []RunKey {
	matrix := func(apps []string, labels []string) []RunKey {
		out := make([]RunKey, 0, len(apps)*len(labels))
		for _, app := range apps {
			for _, label := range labels {
				out = append(out, RunKey{App: app, Label: label})
			}
		}
		return out
	}
	apps := r.opt.apps()
	switch exp {
	case "fig6":
		return matrix(apps, []string{CfgNoPref})
	case "fig7":
		return matrix(apps, Fig7Configs)
	case "fig8":
		return matrix(apps, Fig8Configs)
	case "fig9":
		return matrix(apps, Fig9Configs)
	case "fig10":
		return matrix(apps, Fig10Configs)
	case "fig11":
		return matrix(apps, Fig11Configs)
	case "table5":
		var present []string
		for _, app := range []string{"CG", "MST", "Mcf"} {
			if containsStr(apps, app) {
				present = append(present, app)
			}
		}
		return matrix(present, []string{CfgNoPref, CfgConvenRepl, CfgCustom})
	case "ablation":
		return matrix([]string{AblationApp},
			append([]string{CfgNoPref, CfgRepl}, AblationConfigs...))
	case "sweep":
		// CfgRepl is declared explicitly: it is the sweep's identity
		// point (Sweep/NumLevels=3 and Sweep/NumRows*1 build exactly
		// that machine and alias to it, see aliasOf).
		return matrix(SweepApps, append([]string{CfgNoPref, CfgRepl}, SweepConfigs()...))
	case "faults":
		return matrix(apps, []string{CfgNoPref, CfgRepl})
	}
	return nil
}

// PlanRuns unions the run sets of several experiments, deduplicated
// in first-appearance order.
func (r *Runner) PlanRuns(exps []string) []RunKey {
	seen := make(map[RunKey]bool)
	var out []RunKey
	for _, exp := range exps {
		for _, k := range r.ExperimentRuns(exp) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// ExecuteAll runs every key, in plan order, on a bounded worker pool
// of the given size (<=0 means GOMAXPROCS) and returns when all are
// complete. Because runs memoize with single-flight semantics, keys
// that share op streams, miss traces, sizing or a machine (an identity
// alias and its Repl run) compute them once, whichever worker gets
// there first, and a key already cached costs nothing. onDone, if
// non-nil, is called after each run that returned, completed or
// failed, with (completed, total), where completed counts those runs;
// it may be called from many goroutines at once and must synchronize
// itself.
//
// Cancelling ctx interrupts the matrix: in-flight runs abort, queued
// keys are skipped, neither fires onDone, and ExecuteAll returns the
// context's error once everything has stopped — no run is killed
// mid-write, and every run that completed is already in the attached
// cache. Runs that exhaust their retry budget don't stop the matrix;
// they are reported in the returned error after all keys have been
// visited.
//
// Results are byte-identical to running the keys serially: every
// simulation is an isolated System whose output is a pure function of
// (Options, app, label), so only scheduling order differs — see
// TestParallelEquivalence and TestCacheWarmEquivalence.
func (r *Runner) ExecuteAll(ctx context.Context, keys []RunKey, workers int, onDone func(completed, total int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if len(keys) == 0 {
		return nil
	}

	// Fan the context's cancellation out to the in-flight runs. A
	// context already cancelled interrupts the matrix before any key
	// starts.
	if ctx.Err() != nil {
		r.Interrupt()
	}
	cancelDone := make(chan struct{})
	cancelStopped := make(chan struct{})
	go func() {
		defer close(cancelStopped)
		select {
		case <-ctx.Done():
			r.Interrupt()
		case <-cancelDone:
		}
	}()

	var done atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var nFailed int
	work := make(chan RunKey)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				if r.interrupted.Load() {
					continue
				}
				out := r.outcome(k)
				if errors.Is(out.err, errInterrupted) {
					continue
				}
				if out.err != nil {
					errMu.Lock()
					nFailed++
					if firstErr == nil {
						firstErr = out.err
					}
					errMu.Unlock()
				}
				n := int(done.Add(1))
				if onDone != nil {
					onDone(n, len(keys))
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	close(cancelDone)
	<-cancelStopped

	if r.interrupted.Load() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiment: interrupted: %w", err)
		}
		return errors.New("experiment: interrupted")
	}
	if firstErr != nil {
		return fmt.Errorf("experiment: %d of %d runs failed; first: %w", nFailed, len(keys), firstErr)
	}
	return nil
}
