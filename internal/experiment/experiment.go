// Package experiment reproduces the paper's evaluation: every table
// and figure of §5 is a function here, built on a shared run matrix
// so that (for example) Fig 7's execution times, Fig 9's outcome
// breakdowns and Fig 11's bus utilizations come from the same runs,
// as they do in the paper.
package experiment

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/memproc"
	"ulmt/internal/prefetch"
	"ulmt/internal/table"
	"ulmt/internal/trace"
	"ulmt/internal/workload"
)

// TableBase is the simulated physical address of correlation tables:
// far above any frame the page mapper hands out, so table traffic and
// application traffic never alias.
const TableBase mem.Addr = 1 << 44

// must unwraps constructor results inside the harness. Every
// configuration the harness builds is hardcoded-valid, so an error
// here is an internal invariant violation, not a user mistake.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// SeqStateBase is where ULMT sequential-prefetcher stream registers
// live.
const SeqStateBase mem.Addr = 1<<44 - 4096

// Options scopes an experiment run.
type Options struct {
	// Scale selects problem sizes (default ScaleSmall).
	Scale workload.Scale
	// Apps restricts the applications (default: all nine).
	Apps []string
	// Seed scrambles page mapping.
	Seed uint64
	// Faults, if non-nil, injects the same deterministic fault
	// schedule into every simulated run of this invocation, so any
	// table or figure can be regenerated under degraded conditions.
	Faults *fault.Plan

	// RunTimeout, if positive, bounds each simulation's wall clock; a
	// run past it is aborted and reported failed.
	RunTimeout time.Duration
	// MaxRetries is ignored: a run that panics or trips the watchdog
	// fails once, because a deterministic simulation would fail again.
	// It is kept only for the benchmark harness, which still sets it.
	MaxRetries int
	// Jobs is the parallel worker count for ExecuteAll (the -j flag).
	// Validate rejects values below 1: a zero here almost always
	// means a caller forgot to set it, and silently running serial
	// (or worse, GOMAXPROCS) hides the bug.
	Jobs int
	// Cores is the main-processor count for the multicore experiment
	// (the -cores flag; 0 sweeps the default 2/4/8 ladder).
	Cores int
	// Shards is the correlation-table shard count for the multicore
	// experiment (the -shards flag; 0 gives each core a private
	// ULMT, >=1 shards one shared table across that many memory
	// threads).
	Shards int
	// IntraJobs is ignored: a multicore machine runs its windowed
	// schedule on the calling goroutine. It is kept only for the
	// benchmark harness, which still sets it; Validate still rejects
	// a negative value.
	IntraJobs int
	// CacheDir roots the persistent content-addressed result cache
	// (the -cache-dir flag; "" disables). One directory serves every
	// invocation shape, with entry identity carried by each entry's
	// key.
	CacheDir string
	// MemBudget caps the bytes the recycled successor-arena pool
	// retains between simulations (the -mem-budget flag; 0 disables
	// the cap).
	MemBudget int64
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.Names()
}

// Validate reports the first error in the options: an application
// name outside the workload registry (with the valid names listed),
// an out-of-range scale, a worker count below 1, or a negative
// count, duration or budget.
// Runner methods assume validated options; cmd/ulmtsim calls this
// before building a Runner so a bad flag exits with a clear message
// instead of being silently defaulted or panicking mid-experiment.
func (o Options) Validate() error {
	if o.Scale < workload.ScaleTiny || o.Scale > workload.ScaleLarge {
		return fmt.Errorf("experiment: unknown scale %d", int(o.Scale))
	}
	for _, a := range o.Apps {
		if _, err := workload.ByName(a); err != nil {
			return fmt.Errorf("experiment: unknown application %q (valid: %s)",
				a, strings.Join(workload.Names(), ", "))
		}
	}
	if o.Jobs < 1 {
		return fmt.Errorf("experiment: -j must be >= 1, got %d", o.Jobs)
	}
	if o.RunTimeout < 0 {
		return fmt.Errorf("experiment: -run-timeout must be >= 0, got %s", o.RunTimeout)
	}
	if o.Cores < 0 {
		return fmt.Errorf("experiment: -cores must be >= 0, got %d", o.Cores)
	}
	if o.Shards < 0 {
		return fmt.Errorf("experiment: -shards must be >= 0, got %d", o.Shards)
	}
	if o.IntraJobs < 0 {
		return fmt.Errorf("experiment: IntraJobs must be >= 0, got %d", o.IntraJobs)
	}
	if o.MemBudget < 0 {
		return fmt.Errorf("experiment: -mem-budget must be >= 0, got %d", o.MemBudget)
	}
	return nil
}

// Config labels, matching the bars of Figs 7-11.
const (
	CfgNoPref       = "NoPref"
	CfgConven4      = "Conven4"
	CfgBase         = "Base"
	CfgChain        = "Chain"
	CfgRepl         = "Repl"
	CfgConvenRepl   = "Conven4+Repl"
	CfgConvenReplMC = "Conven4+ReplMC"
	CfgReplMC       = "ReplMC"
	CfgDASP         = "DASP"
	CfgSeq1         = "Seq1"
	CfgSeq4         = "Seq4"
	CfgSeq4Repl     = "Seq4+Repl"
	CfgCustom       = "Custom"
)

// sizing is the memoized result of the Table 2 row-sizing rule, plus
// the miss count of the trace it was derived from (so a cached sizing
// lets Table 2 render without re-extracting the trace).
type sizing struct {
	misses int
	rows   int
	rate   float64
}

// Runner memoizes op streams, miss traces, per-app table sizing, and
// simulation runs across the experiments of one invocation. All four
// caches are concurrency-safe with single-flight semantics: many
// workers may need the same op stream or baseline run at once, and
// each is computed exactly once. A Runner is therefore safe to share
// across the goroutines of ExecuteAll (or any caller's own pool).
type Runner struct {
	opt    Options
	ops    *memo[string, []workload.Op]
	traces *memo[string, []mem.Line]
	rows   *memo[string, sizing]
	runs   *memo[RunKey, simOutcome]
	fig5   *memo[string, Fig5Row]

	// cache, when attached, serves completed runs and derived
	// artifacts across invocations (cache.go) and records new ones.
	cache *Cache

	// active registers in-flight simulations so Interrupt can abort
	// them.
	mu          sync.Mutex
	active      map[RunKey]*core.RunControl
	interrupted atomic.Bool

	// computed counts simulations actually executed (cache misses of
	// runs), so tests can prove a pre-planned run set covers an
	// entire report; eventsFired totals their engine event counts, a
	// host-side measure of event churn. failed counts runs that ended
	// in an error other than an interrupt.
	computed    atomic.Uint64
	eventsFired atomic.Uint64
	failed      atomic.Uint64

	// aliased counts identity-alias keys served from their app's
	// Repl run instead of simulating (heal.go).
	aliased atomic.Uint64

	// testHook, when set (tests only), runs at the top of every
	// simulation's panic-isolation scope, so tests can inject failures.
	testHook func(RunKey)
}

// NewRunner builds an empty cache of experiment state and sets the
// process-wide successor-arena pool's cap to Options.MemBudget (0 =
// uncapped), so a Runner never inherits an earlier Runner's cap.
func NewRunner(opt Options) *Runner {
	r := &Runner{
		opt:    opt,
		ops:    newMemo[string, []workload.Op](),
		traces: newMemo[string, []mem.Line](),
		rows:   newMemo[string, sizing](),
		runs:   newMemo[RunKey, simOutcome](),
		fig5:   newMemo[string, Fig5Row](),
		active: make(map[RunKey]*core.RunControl),
	}
	table.SetArenaBudget(opt.MemBudget)
	return r
}

// AttachCache gives the runner a persistent result cache to serve
// completed runs and derived artifacts from (and record new ones
// into). Attach before any runs execute.
func (r *Runner) AttachCache(c *Cache) { r.cache = c }

// Cache returns the attached result cache (nil when none), so
// cmd/ulmtsim can report its counters in the summary footer.
func (r *Runner) Cache() *Cache { return r.cache }

// Apps returns the application set this runner operates over.
func (r *Runner) Apps() []string { return r.opt.apps() }

// RunsComputed reports how many simulations this runner has actually
// executed (as opposed to served from cache).
func (r *Runner) RunsComputed() uint64 { return r.computed.Load() }

// EventsFired reports the total engine events executed across those
// simulations, for progress display and perf tracking. Safe to call
// concurrently with running workers (it is monotonic, not a
// snapshot).
func (r *Runner) EventsFired() uint64 { return r.eventsFired.Load() }

// ForkedRuns reports how many identity-alias keys were served from
// their app's Repl run instead of simulating (see aliasOf).
// ScratchRuns is the complement: simulations executed from cycle
// zero — the same count RunsComputed reports.
func (r *Runner) ForkedRuns() uint64  { return r.aliased.Load() }
func (r *Runner) ScratchRuns() uint64 { return r.computed.Load() }

// SnapshotRingBytes always reports 0: runs no longer keep in-memory
// snapshot rings. It is kept only for the benchmark harness, which
// still reads it.
func (r *Runner) SnapshotRingBytes() uint64 { return 0 }

// Ops returns (generating once) the op stream of an application.
// Streams are baseline live memory — the memo holds each for the
// whole invocation — so they are deliberately outside the -mem-budget
// cap, which bounds only memory retained *beyond* what an uncapped
// run needs live (pooled arenas).
func (r *Runner) Ops(app string) []workload.Op {
	return r.ops.get(app, func() []workload.Op {
		w, err := workload.ByName(app)
		if err != nil {
			// Options.Validate catches unknown names up front; hitting
			// this means a caller bypassed validation.
			panic(err)
		}
		return w.Generate(r.opt.Scale)
	})
}

// MissTrace returns (extracting once) the functional L2 miss trace.
// Like op streams, traces are baseline live memory and stay outside
// the -mem-budget cap.
func (r *Runner) MissTrace(app string) []mem.Line {
	return r.traces.get(app, func() []mem.Line {
		cfg := core.DefaultConfig()
		return trace.L2Misses(r.Ops(app), trace.Config{
			L1: cfg.L1, L2: cfg.L2, LinearPages: cfg.LinearPages, Seed: r.opt.Seed,
		})
	})
}

// sizeRows applies (once) the Table 2 sizing rule to an application.
// With a cache attached the derivation — which needs the full
// functional miss trace — is served from disk, so a warm invocation
// sizes every table without generating a single op stream.
func (r *Runner) sizeRows(app string) sizing {
	return r.rows.get(app, func() sizing {
		if r.cache != nil {
			if a, ok := r.cache.loadSizing(app); ok {
				return sizing{misses: a.Misses, rows: a.Rows, rate: a.Rate}
			}
		}
		tr := r.MissTrace(app)
		n, rate := table.SizeRows(tr, 2, 0.05, 1<<10, 1<<22)
		s := sizing{misses: len(tr), rows: n, rate: rate}
		if r.cache != nil {
			r.cache.saveSizing(app, sizingArtifact{Misses: s.misses, Rows: s.rows, Rate: s.rate})
		}
		return s
	})
}

// NumRows returns the Table 2 sizing for an application: the lowest
// power of two with <5% of insertions replacing a valid row.
func (r *Runner) NumRows(app string) int { return r.sizeRows(app).rows }

// predictorRows sizes the large conflict-free tables of the Fig 5
// methodology (the paper uses NumRows=256K; smaller scales use
// proportionally smaller but still conflict-free tables).
func (r *Runner) predictorRows() int {
	if r.opt.Scale >= workload.ScaleMedium {
		return 1 << 18
	}
	return 1 << 16
}

// BuildConfig assembles a core.Config for a labeled configuration,
// with fresh (stateful) prefetcher instances.
func (r *Runner) BuildConfig(app, label string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = r.opt.Seed
	cfg.Faults = r.opt.Faults
	rows := r.NumRows(app)

	newRepl := func(levels int) prefetch.Algorithm {
		p := table.ReplParams(rows)
		p.NumLevels = levels
		return prefetch.NewRepl(table.NewRepl(p, TableBase))
	}
	conven := func() { cfg.Conven = must(prefetch.NewConven(4, 6)) }

	switch label {
	case CfgNoPref:
	case CfgConven4:
		conven()
	case CfgDASP:
		cfg.DASP = must(prefetch.NewConven(4, 6))
	case CfgBase:
		cfg.ULMT = prefetch.NewBase(table.NewBase(table.BaseParams(rows), TableBase))
	case CfgChain:
		p := table.ChainParams(rows)
		cfg.ULMT = must(prefetch.NewChain(table.NewBase(p, TableBase), p.NumLevels))
	case CfgRepl:
		cfg.ULMT = newRepl(3)
	case CfgReplMC:
		cfg.ULMT = newRepl(3)
		cfg.MemProc = memproc.DefaultConfig(memproc.InNorthBridge)
	case CfgConvenRepl:
		conven()
		cfg.ULMT = newRepl(3)
	case CfgConvenReplMC:
		conven()
		cfg.ULMT = newRepl(3)
		cfg.MemProc = memproc.DefaultConfig(memproc.InNorthBridge)
	case CfgSeq1:
		cfg.ULMT = must(prefetch.NewSeq(1, 6, SeqStateBase))
	case CfgSeq4:
		cfg.ULMT = must(prefetch.NewSeq(4, 6, SeqStateBase))
	case CfgSeq4Repl:
		cfg.ULMT = &prefetch.Combined{
			First:  must(prefetch.NewSeq(4, 6, SeqStateBase)),
			Second: newRepl(3),
		}
	case CfgCustom:
		// Table 5: CG runs Seq1+Repl in Verbose mode; MST and Mcf
		// run Repl with NumLevels=4; Conven4 stays on. Applications
		// without a customization keep their Conven4+Repl setup.
		conven()
		switch app {
		case "CG":
			cfg.ULMT = &prefetch.Combined{
				First:  must(prefetch.NewSeq(1, 6, SeqStateBase)),
				Second: newRepl(3),
			}
			cfg.Verbose = true
		case "MST", "Mcf":
			cfg.ULMT = newRepl(4)
		default:
			cfg.ULMT = newRepl(3)
		}
	default:
		if c, ok := r.ablationConfig(app, label); ok {
			return c
		}
		if c, ok := r.sweepConfig(app, label); ok {
			return c
		}
		panic(fmt.Sprintf("experiment: unknown configuration %q", label))
	}
	return cfg
}

// Run simulates (once) application app under the labeled
// configuration. Concurrent callers of the same (app, label) pair —
// or of an identity alias and its app's Repl run (see aliasOf) —
// share one simulation. Renderers call Run only for
// keys ExecuteAll already completed; a run that failed or was
// interrupted panics here with the stored cause, which
// cmd/ulmtsim never reaches because it skips rendering when
// ExecuteAll reports an error.
func (r *Runner) Run(app, label string) core.Results {
	out := r.outcome(RunKey{App: app, Label: label})
	if out.err != nil {
		panic(fmt.Sprintf("experiment: run %s/%s unavailable: %v", app, label, out.err))
	}
	res := out.res
	res.Label = label
	return res
}

// Baseline returns the NoPref run for normalization.
func (r *Runner) Baseline(app string) core.Results { return r.Run(app, CfgNoPref) }

// GeoMeanSpeedup is not what the paper uses: it reports the plain
// average of per-application speedups ("the average of the
// application speedups", §5.2), so that is what AverageSpeedup
// computes.
func (r *Runner) AverageSpeedup(label string) float64 {
	apps := r.opt.apps()
	sum := 0.0
	for _, app := range apps {
		sum += r.Run(app, label).Speedup(r.Baseline(app))
	}
	return sum / float64(len(apps))
}
