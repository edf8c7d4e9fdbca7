// Command ulmtsim regenerates the paper's evaluation: every table
// and figure of "Using a User-Level Memory Thread for Correlation
// Prefetching" (ISCA 2002), over this repository's workload kernels
// and simulated machine.
//
// Usage:
//
//	ulmtsim [-exp all|table1..table5|fig5..fig11|ablation|sweep|faults|multicore]
//	        [-scale tiny|small|medium|large] [-apps CG,Mcf,...] [-seed N]
//	        [-j N] [-faults off|light|heavy|k=v,...] [-fault-seed N]
//	        [-cores N] [-shards N] [-run-timeout D]
//	        [-cache-dir DIR] [-mem-budget MIB]
//	        [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	        [-bench-json FILE]
//
// With -cache-dir, every completed run's results (and the derived
// per-application artifacts: Table 2 sizing, Fig 5 accuracies) are
// persisted in a content-addressed cache keyed by what they depend on
// — run identity, the invocation's behavior fingerprint, and a
// code-behavior version constant. A later invocation with the same
// parameters replays from disk instead of simulating, rendering a
// byte-identical report in seconds; entries written by a different
// scale, seed, fault plan or code generation, and entries that fail
// their checksum or core.Results.Check, are never served (they're
// counted as stale and recomputed). Omitting -cache-dir simulates
// everything, the equivalence oracle for a warm cache. The footer
// reports hits, misses and stale entries.
//
// -mem-budget caps the bytes the recycled correlation-table arena
// pool retains between simulations (default 192 MiB, 0 = uncapped):
// parking an arena that does not fit evicts pooled arenas
// largest-first, and an arena larger than the cap is dropped (the
// next same-geometry build allocates fresh — slower, never wrong). An
// active cap also drops the GC target to 50% unless the GOGC
// environment variable sets one, so GC headroom does not re-inflate
// what the cap squeezed out; the pointer-free simulation heap makes
// the extra GC cycles effectively free.
//
// SIGINT/SIGTERM during the run matrix aborts the in-flight runs,
// skips the queued ones and exits without rendering a partial report.
// Every run that completed before the signal is already in the
// -cache-dir cache (each is fsynced there before its worker moves
// on), so rerunning the same command replays those runs and starts
// over only the ones that were in flight, at most one per -j worker;
// the report is byte-identical to an uninterrupted run's. Outside the
// matrix (rendering, and experiments that simulate while rendering,
// such as -exp multicore), and for a second signal during it, the
// signal has its default effect and ends the process.
// A run that panics, exceeds the -run-timeout watchdog, or breaks a
// machine invariant (core.Results.Check) fails once, with an error
// naming it: simulations are deterministic, so a retry would fail
// again.
//
// The profiling flags wrap the whole run in the standard pprof /
// runtime-trace collectors: -cpuprofile and -trace record while the
// matrix executes, -memprofile snapshots the heap after it finishes
// (after a GC, so it shows live retention, not garbage). Inspect with
// `go tool pprof` / `go tool trace`.
//
// The host runtime's GC is observable: the report ends with a
// "# host:" footer line (peak heap, GC cycles and pause, wall clock,
// events fired and events/s), and -bench-json writes those numbers
// plus a SHA-256 of the report to FILE for machine-readable perf
// tracking (see BENCH_ulmt.json at the repository root).
//
// The sweep's identity points (Sweep/NumLevels=3, Sweep/NumRows*1)
// build exactly their app's Repl machine, so they reuse the Repl run
// instead of simulating it again (DESIGN.md "Identical-configuration
// aliasing"); the footer's aliased/scratch counts show the split.
//
// The run matrix of the requested experiments is pre-planned and
// executed on -j parallel workers (default: GOMAXPROCS) with live
// progress on stderr; the rendered report is byte-identical at any
// -j, including -j 1 (the serial path). With -faults set, every
// simulated run injects the same deterministic fault schedule
// (dropped observations, lost/delayed pushes, ULMT preemptions, bus
// brownouts, DRAM contention spikes, OS page remaps), so any table or
// figure can be regenerated under degraded conditions; -exp faults
// prints what was injected.
//
// -exp multicore scales the machine out: N main processors (-cores,
// default sweep 2/4/8) run a multiprogrammed mix of the workload
// kernels over one shared front-side bus and DRAM. With -shards 0
// each core gets a private correlation table and memory thread; with
// -shards S one shared table is address-hash sharded across S memory
// threads, and prefetch pushes land in the missing core's L2. The
// report prints per-core and aggregate tables for each machine size.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"syscall"
	"time"

	"ulmt/internal/experiment"
	"ulmt/internal/fault"
	"ulmt/internal/workload"
)

func main() {
	// run carries the real work so its defers — profile and trace
	// stops — flush before the process exits with its status code.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment to run (all, table1..table5, fig5..fig11, ablation, sweep, faults, multicore)")
	scaleFlag := flag.String("scale", "small", "problem scale: tiny, small, medium, large")
	appsFlag := flag.String("apps", "", "comma-separated application subset (default: all nine)")
	seed := flag.Uint64("seed", 1, "page-mapping seed")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
	faultSpec := flag.String("faults", "off", "fault plan: off, light, heavy, or key=value list (see internal/fault)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault plan's pseudo-random schedule")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	benchJSON := flag.String("bench-json", "", "write headline run metrics as JSON to this file")
	runTimeout := flag.Duration("run-timeout", 0, "per-simulation wall-clock watchdog; a run past it is aborted and reported failed (0 = off)")
	cores := flag.Int("cores", 0, "main-processor count for -exp multicore (0 sweeps 2/4/8)")
	shards := flag.Int("shards", 0, "correlation-table shards for -exp multicore (0 = private per-core ULMTs, >=1 = one shared table across that many memory threads)")
	cacheDir := flag.String("cache-dir", "", "persist completed results and derived artifacts in a content-addressed cache under this directory; later invocations with the same parameters replay from it")
	memBudget := flag.Int64("mem-budget", 192, "cap in MiB on the correlation-table arenas retained between simulations (0 = uncapped); peak heap runs about one cap above a retention-free run's baseline")
	flag.Parse()

	memBudgetBytes, err := mibToBytes(*memBudget)
	if err != nil {
		return err
	}
	if memBudgetBytes > 0 && os.Getenv("GOGC") == "" {
		// A retention cap says the user wants peak heap bounded, and
		// the default 100% GC headroom would re-inflate whatever the
		// cap squeezed out. The simulation heap is deliberately
		// pointer-free (packed arenas), so marking twice as often costs
		// ~1ms a cycle and measures slightly FASTER than GOGC=100 at
		// medium scale — the smaller heap is kinder to the caches.
		// An explicit GOGC always wins.
		debug.SetGCPercent(50)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("ulmtsim: -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("ulmtsim: -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("ulmtsim: -trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("ulmtsim: -trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("ulmtsim: -memprofile: %w", err)
		}
		defer func() {
			// Snapshot live heap retention, not collectable garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ulmtsim: -memprofile:", err)
			}
			f.Close()
		}()
	}

	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	plan, err := fault.ParseSpec(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	opt := experiment.Options{
		Scale: scale, Seed: *seed, Faults: plan,
		RunTimeout: *runTimeout, Jobs: *jobs,
		Cores: *cores, Shards: *shards,
		CacheDir: *cacheDir, MemBudget: memBudgetBytes,
	}
	if *appsFlag != "" {
		for _, a := range strings.Split(*appsFlag, ",") {
			opt.Apps = append(opt.Apps, strings.TrimSpace(a))
		}
	}
	if err := opt.Validate(); err != nil {
		return err
	}

	exps := []string{*exp}
	if *exp == "all" {
		exps = experiment.AllOrder
	}
	for _, e := range exps {
		if !experiment.IsExperiment(e) {
			return fmt.Errorf("unknown experiment %q (have all, %s)",
				e, strings.Join(experiment.Experiments(), ", "))
		}
	}
	r := experiment.NewRunner(opt)
	if *cacheDir != "" {
		cache, err := experiment.OpenCache(*cacheDir, opt)
		if err != nil {
			return err
		}
		r.AttachCache(cache)
	}

	// SIGINT/SIGTERM cancels the run-matrix context: in-flight runs
	// abort cleanly, queued runs are skipped, and the process exits
	// without rendering a partial report. The handler is released at
	// the first signal and again once the matrix is done, so a second
	// signal, or one during rendering, ends the process the default
	// way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)

	hw := newHeapWatch()
	start := time.Now()

	// Pre-plan the full run matrix and execute it on the worker pool;
	// rendering below then only reads completed results. The report
	// bytes are identical at any -j (see the equivalence suite).
	keys := r.PlanRuns(exps)
	if len(keys) > 0 {
		p := newProgress(os.Stderr, len(keys), r.EventsFired)
		execErr := r.ExecuteAll(ctx, keys, *jobs, p.update)
		p.finish()
		if execErr != nil {
			fmt.Fprintf(os.Stderr, "ulmtsim: runs failed %d\n", r.Failed())
			if r.Interrupted() && r.Cache() != nil {
				fmt.Fprintf(os.Stderr, "ulmtsim: completed runs are cached under %s; re-run the same command to continue\n", *cacheDir)
			}
			return fmt.Errorf("ulmtsim: %w", execErr)
		}
	}
	stopSignals()
	// Hash the report as it streams to stdout so -bench-json can
	// fingerprint exactly what was printed.
	sum := sha256.New()
	var out io.Writer = os.Stdout
	if *benchJSON != "" {
		out = io.MultiWriter(os.Stdout, sum)
	}
	for _, e := range exps {
		if err := r.Render(out, e); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	m := hw.stop()

	// Host footer: how the simulator itself behaved, not the simulated
	// machine. Kept off the hashed report body and easy to strip
	// (single "# host:" prefix) so report diffs across runs stay clean.
	// Events fired + rate show the host-side event churn per run.
	events := r.EventsFired()
	rate := "0"
	if s := wall.Seconds(); s > 0 {
		rate = humanCount(uint64(float64(events) / s))
	}
	var cacheHits, cacheMisses, cacheStale uint64
	cacheNote := ""
	if c := r.Cache(); c != nil {
		cacheHits, cacheMisses, cacheStale = c.Hits(), c.Misses(), c.Stale()
		cacheNote = fmt.Sprintf(", cache hits %d, misses %d, stale %d", cacheHits, cacheMisses, cacheStale)
	}
	fmt.Printf("# host: peak heap %.1f MiB, GC cycles %d, GC pause %s, wall %s, events %s (%s/s), runs failed %d, aliased %d, scratch %d%s\n",
		float64(m.peakHeap)/(1<<20), m.gcCycles,
		time.Duration(m.gcPauseNs).Round(time.Microsecond), wall.Round(time.Millisecond),
		humanCount(events), rate, r.Failed(),
		r.ForkedRuns(), r.ScratchRuns(), cacheNote)

	if *benchJSON != "" {
		b, err := json.MarshalIndent(benchRecord{
			Exp:   *exp,
			Scale: scale.String(),
			Seed:  *seed,
			Jobs:  *jobs,
			// Parallel-mode wall clocks are only comparable at equal
			// parallelism; record the host's.
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			HostVCPUs:  runtime.NumCPU(),
			// Planned matrix keys, or (for experiments that simulate
			// at render time, like multicore) the runs computed.
			Runs:         max(len(keys), int(r.RunsComputed())),
			WallSeconds:  wall.Seconds(),
			PeakHeapMiB:  float64(m.peakHeap) / (1 << 20),
			GCCycles:     m.gcCycles,
			GCPauseMs:    float64(m.gcPauseNs) / 1e6,
			EventsFired:  events,
			AliasedRuns:  r.ForkedRuns(),
			ScratchRuns:  r.ScratchRuns(),
			Cache:        r.Cache() != nil,
			CacheHits:    cacheHits,
			CacheMisses:  cacheMisses,
			CacheStale:   cacheStale,
			ReportSHA256: fmt.Sprintf("%x", sum.Sum(nil)),
		}, "", "  ")
		if err != nil {
			return fmt.Errorf("ulmtsim: -bench-json: %w", err)
		}
		if err := os.WriteFile(*benchJSON, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("ulmtsim: -bench-json: %w", err)
		}
	}
	return nil
}

// benchRecord is the machine-readable summary -bench-json emits; the
// BENCH_ulmt.json trajectory file at the repo root collects these.
type benchRecord struct {
	Exp          string  `json:"exp"`
	Scale        string  `json:"scale"`
	Seed         uint64  `json:"seed"`
	Jobs         int     `json:"jobs"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	HostVCPUs    int     `json:"host_vcpus"`
	Runs         int     `json:"runs"`
	WallSeconds  float64 `json:"wall_seconds"`
	PeakHeapMiB  float64 `json:"peak_heap_mib"`
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseMs    float64 `json:"gc_pause_ms"`
	EventsFired  uint64  `json:"events_fired"`
	AliasedRuns  uint64  `json:"aliased_runs"`
	ScratchRuns  uint64  `json:"scratch_runs"`
	Cache        bool    `json:"cache"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheStale   uint64  `json:"cache_stale"`
	ReportSHA256 string  `json:"report_sha256"`
}

// mibToBytes converts the -mem-budget flag from MiB to bytes. A value
// past the largest whole MiB count an int64 byte total can hold is
// rejected in MiB, as given: shifting it would wrap (2^44 MiB becomes
// 0, an uncapped budget).
func mibToBytes(mib int64) (int64, error) {
	const maxMiB = math.MaxInt64 >> 20
	if mib < 0 || mib > maxMiB {
		return 0, fmt.Errorf("ulmtsim: -mem-budget must be between 0 and %d MiB, got %d", maxMiB, mib)
	}
	return mib << 20, nil
}

// humanCount renders an event count compactly (1234567890 -> "1.23G")
// for the progress line and host footer.
func humanCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// heapWatch samples the live heap to report its peak: Go exposes GC
// cycle and pause totals directly, but peak heap only through
// observation.
type heapWatch struct {
	stopCh chan struct{}
	doneCh chan struct{}
	peak   uint64
}

type heapMetrics struct {
	peakHeap  uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func newHeapWatch() *heapWatch {
	h := &heapWatch{stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	go func() {
		defer close(h.doneCh)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return h
}

func (h *heapWatch) stop() heapMetrics {
	close(h.stopCh)
	<-h.doneCh
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
	return heapMetrics{peakHeap: h.peak, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs}
}

// progress prints live run-matrix completion to stderr: runs done,
// elapsed wall clock, and a simple rate-based ETA. Updates are
// throttled and carriage-return overwritten so the report on stdout
// stays clean.
type progress struct {
	mu    sync.Mutex
	w     *os.File
	start time.Time
	last  time.Time
	total int
	// done is the latest completed count, shown is the one on screen:
	// throttling can skip the last update before an interrupt, and
	// finish then prints it.
	done, shown int
	wrote       bool
	// events snapshots the engine events fired so far across
	// completed and in-flight runs (Runner.EventsFired), so the line
	// shows the simulator's event throughput live.
	events func() uint64
}

func newProgress(w *os.File, total int, events func() uint64) *progress {
	return &progress{w: w, start: time.Now(), total: total, events: events}
}

// update is safe to call from many workers at once.
func (p *progress) update(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done = max(p.done, done)
	now := time.Now()
	if p.done < total && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.render(now)
}

// render prints the line for the latest count; the caller holds mu.
func (p *progress) render(now time.Time) {
	done, total := p.done, p.total
	p.last, p.shown = now, done
	elapsed := now.Sub(p.start).Round(100 * time.Millisecond)
	line := fmt.Sprintf("\rruns %d/%d  elapsed %s", done, total, elapsed)
	// Both rates guard the denominators: cached runs complete in
	// microseconds, so done > 0 with (rounded or true) zero elapsed is
	// a real state, not a pathology.
	if done > 0 && done < total && now.Sub(p.start) > 0 {
		eta := time.Duration(float64(now.Sub(p.start)) / float64(done) * float64(total-done))
		line += fmt.Sprintf("  eta %s", eta.Round(100*time.Millisecond))
	}
	if ev := p.events(); ev > 0 {
		line += "  events " + humanCount(ev)
		if s := now.Sub(p.start).Seconds(); s > 0 {
			line += fmt.Sprintf(" (%s/s)", humanCount(uint64(float64(ev)/s)))
		}
	}
	fmt.Fprint(p.w, line)
	p.wrote = true
}

// finish prints a count the throttle held back, then terminates the
// progress line so the report starts cleanly.
func (p *progress) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done != p.shown {
		p.render(time.Now())
	}
	if p.wrote {
		fmt.Fprintln(p.w)
	}
}
