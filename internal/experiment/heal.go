package experiment

import (
	"errors"
	"fmt"
	"os"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/prefetch"
)

// Self-healing execution: every simulation runs under a
// core.RunControl with panic isolation, bounded retry, a wall-clock
// watchdog, and (when a Store is attached) crash-safe persistence —
// completed results are saved as they finish, and an interrupt
// checkpoints whatever is mid-flight so a later -resume continues
// instead of restarting.

// errInterrupted marks a run stopped by Interrupt (SIGINT/SIGTERM via
// ExecuteAll's context). It is terminal, never retried: the point of
// an interrupt is to stop.
var errInterrupted = errors.New("experiment: run interrupted")

// simOutcome is what the runs memo holds: either results or the error
// that exhausted the run's retry budget. Memoizing the error too
// keeps single-flight semantics — a failed run is not silently
// re-attempted by every renderer that asks for it.
type simOutcome struct {
	res core.Results
	err error
}

// activeRun is a registry entry for an in-flight simulation, the
// handle Interrupt uses to stop it (checkpointing when it can).
type activeRun struct {
	ctl            *core.RunControl
	checkpointable bool
}

// Interrupt stops the matrix: in-flight runs that can checkpoint are
// asked to stop at their next quiescent point (attempt writes the
// checkpoint), the rest are aborted, and not-yet-started keys are
// skipped. ExecuteAll wires this to its context's cancellation.
func (r *Runner) Interrupt() {
	r.interrupted.Store(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.active {
		if a.checkpointable {
			a.ctl.RequestCheckpoint()
		} else {
			a.ctl.Abort()
		}
	}
}

// Interrupted reports whether Interrupt has been called.
func (r *Runner) Interrupted() bool { return r.interrupted.Load() }

// Retried reports how many run attempts were retried after a panic
// or watchdog timeout; Failed how many runs exhausted their retry
// budget. Both appear in the cmd/ulmtsim summary footer.
func (r *Runner) Retried() uint64 { return r.retried.Load() }
func (r *Runner) Failed() uint64  { return r.failed.Load() }

func (r *Runner) register(k RunKey, a activeRun) {
	r.mu.Lock()
	r.active[k] = a
	r.mu.Unlock()
}

func (r *Runner) unregister(k RunKey) {
	r.mu.Lock()
	delete(r.active, k)
	r.mu.Unlock()
}

// aliasOf maps a key whose label builds exactly its app's Repl
// machine to that Repl key. table.ReplParams defaults NumLevels to 3
// and the *1 row factor is the sized row count unchanged, so both
// sweep identity points are the Repl run under another name — see
// TestSweepAliasIdentity.
func aliasOf(k RunKey) (RunKey, bool) {
	switch k.Label {
	case SweepLevelsLabel(3), SweepRowsLabel("*1"):
		return RunKey{App: k.App, Label: CfgRepl}, true
	}
	return k, false
}

// outcome returns the memoized outcome for a key, computing it (with
// healing) on first use. An identity alias resolves through its Repl
// key's memo entry, so an alias and its Repl key cost one simulation
// whichever is asked for first.
func (r *Runner) outcome(k RunKey) simOutcome {
	return r.runs.get(k, func() simOutcome {
		lk, ok := aliasOf(k)
		if !ok {
			return r.compute(k)
		}
		out := r.outcome(lk)
		if out.err == nil {
			out.res.Label = k.Label
			r.aliased.Add(1)
		}
		return out
	})
}

// compute runs one simulation with resume, retry and persistence
// around it. It runs at most once per key (single-flight memo) and its
// attempts are strictly sequential.
func (r *Runner) compute(k RunKey) simOutcome {
	// The persistent cache is consulted first: a hit replays the exact
	// Results a previous invocation computed (same behavior version,
	// same Options fingerprint), so no simulation is touched.
	if r.cache != nil {
		if res, ok := r.cache.LoadRun(k); ok {
			return simOutcome{res: res}
		}
	}
	if r.store != nil && r.opt.Resume {
		res, ok, err := r.store.LoadResult(k)
		if ok {
			r.saveToCache(k, res)
			return simOutcome{res: res}
		}
		if err != nil {
			// A corrupt result file is re-run, not rendered.
			fmt.Fprintf(os.Stderr, "ulmtsim: discarding %v; re-running\n", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			r.retried.Add(1)
			// Linear backoff: transient host pressure (the usual cause
			// of watchdog trips) eases; a deterministic bug fails fast.
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		res, err := r.attempt(k)
		if err == nil {
			r.saveToCache(k, res)
			if r.store != nil {
				if serr := r.store.SaveResult(k, res); serr != nil {
					fmt.Fprintf(os.Stderr, "ulmtsim: persisting %s/%s: %v\n", k.App, k.Label, serr)
				}
				r.store.RemoveCheckpoint(k)
			}
			return simOutcome{res: res}
		}
		if errors.Is(err, errInterrupted) {
			return simOutcome{err: err}
		}
		lastErr = err
		if attempt >= r.opt.MaxRetries {
			break
		}
	}
	r.failed.Add(1)
	return simOutcome{err: lastErr}
}

// saveToCache records a completed result in the persistent cache (a
// no-op without one). Called on every success path — scratch and
// store-resumed — so a cache attached mid-way through a matrix's
// history still converges to fully warm.
func (r *Runner) saveToCache(k RunKey, res core.Results) {
	if r.cache != nil {
		r.cache.SaveRun(k, res)
	}
}

// attempt executes one isolated try of the simulation: panics become
// errors, the watchdog aborts it past Options.RunTimeout, an
// interrupt either checkpoints it (support and a store permitting) or
// aborts it.
func (r *Runner) attempt(k RunKey) (res core.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run %s/%s panicked: %v", k.App, k.Label, p)
		}
	}()
	if h := r.testHook; h != nil {
		h(k)
	}
	cfg := r.BuildConfig(k.App, k.Label)
	// The config's correlation table is this attempt's largest
	// allocation; retire it for the next same-geometry build once the
	// machine is done with it (all results and checkpoints written).
	defer func() { prefetch.RecycleTables(cfg.ULMT) }()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Results{}, err
	}
	ops := r.Ops(k.App)
	ctl := &core.RunControl{}
	checkpointable := r.store != nil && sys.SupportsCheckpoint()
	r.register(k, activeRun{ctl: ctl, checkpointable: checkpointable})
	defer r.unregister(k)
	// Registered first, checked second: whichever order Interrupt and
	// this attempt race in, the run is stopped or never started.
	if r.interrupted.Load() {
		return core.Results{}, errInterrupted
	}
	if r.opt.RunTimeout > 0 {
		t := time.AfterFunc(r.opt.RunTimeout, ctl.Abort)
		defer t.Stop()
	}

	var out core.RunOutcome
	ckptPath := ""
	if checkpointable {
		ckptPath = r.store.CheckpointPath(k)
	}
	if checkpointable && r.opt.Resume && r.store.HasCheckpoint(k) {
		var rerr error
		res, out, rerr = sys.ResumeCheckpoint(k.App, ops, ckptPath, r.store.Fingerprint(), ctl)
		if rerr != nil {
			// A checkpoint that fails validation must not wedge
			// recovery: discard it and run from the beginning.
			fmt.Fprintf(os.Stderr, "ulmtsim: discarding checkpoint for %s/%s: %v\n", k.App, k.Label, rerr)
			r.store.RemoveCheckpoint(k)
			prefetch.RecycleTables(cfg.ULMT)
			cfg = r.BuildConfig(k.App, k.Label)
			if sys, err = core.NewSystem(cfg); err != nil {
				return core.Results{}, err
			}
			res, out = sys.RunControlled(k.App, ops, ctl)
		}
	} else {
		res, out = sys.RunControlled(k.App, ops, ctl)
	}

	switch out {
	case core.RunFinished:
		res.Label = k.Label
		r.computed.Add(1)
		r.eventsFired.Add(res.EventsFired)
		return res, nil
	case core.RunCheckpointed:
		if werr := sys.WriteCheckpoint(ckptPath, r.store.Fingerprint()); werr != nil {
			fmt.Fprintf(os.Stderr, "ulmtsim: checkpointing %s/%s: %v\n", k.App, k.Label, werr)
		}
		return core.Results{}, errInterrupted
	default: // core.RunAborted
		if r.interrupted.Load() {
			return core.Results{}, errInterrupted
		}
		return core.Results{}, fmt.Errorf("run %s/%s exceeded the %s watchdog", k.App, k.Label, r.opt.RunTimeout)
	}
}
