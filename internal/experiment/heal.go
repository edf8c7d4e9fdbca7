package experiment

import (
	"errors"
	"fmt"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/prefetch"
)

// Self-healing execution: every simulation runs once, under a
// core.RunControl with panic isolation and a wall-clock watchdog, and
// must pass core.Results.Check; a deterministic run that failed would
// fail again, so none is retried. A completed run is written durably
// to the result cache before its worker takes the next key, so a
// later invocation over the same cache directory replays every
// completed run and starts only the rest over.

// errInterrupted marks a run stopped by Interrupt (SIGINT/SIGTERM via
// ExecuteAll's context). It is not counted as a failure: the point of
// an interrupt is to stop.
var errInterrupted = errors.New("experiment: run interrupted")

// simOutcome is what the runs memo holds: either results or the error
// that ended the run. Memoizing the error too keeps single-flight
// semantics — a failed run is not silently re-attempted by every
// renderer that asks for it.
type simOutcome struct {
	res core.Results
	err error
}

// Interrupt stops the matrix: in-flight runs are aborted and
// not-yet-started keys are skipped. ExecuteAll wires this to its
// context's cancellation.
func (r *Runner) Interrupt() {
	r.interrupted.Store(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ctl := range r.active {
		ctl.Abort()
	}
}

// Interrupted reports whether Interrupt has been called.
func (r *Runner) Interrupted() bool { return r.interrupted.Load() }

// Failed reports how many runs panicked, tripped the watchdog or
// failed core.Results.Check; it appears in the cmd/ulmtsim summary
// footer.
func (r *Runner) Failed() uint64 { return r.failed.Load() }

func (r *Runner) register(k RunKey, ctl *core.RunControl) {
	r.mu.Lock()
	r.active[k] = ctl
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

// compute serves one key from the persistent cache or simulates it
// once. It runs at most once per key (single-flight memo).
func (r *Runner) compute(k RunKey) simOutcome {
	// The persistent cache is consulted first: a hit replays the exact
	// Results a previous invocation computed (same behavior version,
	// same Options fingerprint, intact checksum, passing Check), so no
	// simulation is touched.
	if r.cache != nil {
		if res, ok := r.cache.LoadRun(k); ok {
			return simOutcome{res: res}
		}
	}
	res, err := r.attempt(k)
	if err != nil {
		if !errors.Is(err, errInterrupted) {
			r.failed.Add(1)
		}
		return simOutcome{err: err}
	}
	if r.cache != nil {
		r.cache.SaveRun(k, res)
	}
	return simOutcome{res: res}
}

// attempt executes the run's one isolated try: panics become errors,
// the watchdog aborts it past Options.RunTimeout, an interrupt aborts
// it, and Results that fail core.Results.Check are an error. Every
// error names the run.
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
	// machine is done with it.
	defer prefetch.RecycleTables(cfg.ULMT)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Results{}, err
	}
	ops := r.Ops(k.App)
	ctl := &core.RunControl{}
	r.register(k, ctl)
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

	res, out := sys.RunControlled(k.App, ops, ctl)
	if out == core.RunFinished {
		res.Label = k.Label
		r.computed.Add(1)
		r.eventsFired.Add(res.EventsFired)
		if err := res.Check(); err != nil {
			return core.Results{}, fmt.Errorf("run %s/%s: %w", k.App, k.Label, err)
		}
		return res, nil
	}
	if r.interrupted.Load() {
		return core.Results{}, errInterrupted
	}
	return core.Results{}, fmt.Errorf("run %s/%s exceeded the %s watchdog", k.App, k.Label, r.opt.RunTimeout)
}
