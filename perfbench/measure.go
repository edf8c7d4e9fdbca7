package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"ulmt/internal/table"
)

// endToEnd measures the end-to-end metrics: the median of several
// set-ups, then timed passes until about seconds have gone by.
func endToEnd(b bench, e *benchEnv, seconds int) (measured, error) {
	m := measured{values: make(map[string]float64)}
	var setups, walls []float64
	setUp := func() error {
		t, err := setUpTimed(b, e)
		setups = append(setups, t)
		return err
	}
	for i := 0; i < b.setUpReps(); i++ {
		if err := setUp(); err != nil {
			return m, fmt.Errorf("set-up: %w", err)
		}
	}

	var ops uint64
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for {
		if b.freshPerPass() && len(walls) > 0 {
			if err := setUp(); err != nil {
				return m, fmt.Errorf("set-up: %w", err)
			}
		}
		coldStart()
		t0 := time.Now()
		p, err := safePass(b, e, nil)
		wall := time.Since(t0)
		m.check(e, &p, err)
		walls = append(walls, wall.Seconds())
		if err == nil {
			ops = p.ops
		}
		// Stop when one more pass of the median length would overrun.
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > budget {
			break
		}
	}
	m.passes, m.walls = len(walls), walls
	w := median(walls)
	m.values["wall_s"] = w
	m.values["sim_ops_per_s"] = float64(ops) / w
	m.values["setup_s"] = median(setups)
	return m, nil
}

// setUpTimed runs b.setUp and returns its host seconds. What is not
// the workload's own set-up happens before the clock starts: emptying
// the scratch directory and creating the empty cache directory a
// fresh pass gets, and, for the set-ups that build large inputs,
// returning the heap to the OS so each starts from the same state.
func setUpTimed(b bench, e *benchEnv) (float64, error) {
	if b.freshPerPass() {
		if err := e.freshCacheDir(); err != nil {
			return 0, err
		}
	} else {
		debug.FreeOSMemory()
	}
	t0 := time.Now()
	err := b.setUp(e)
	return time.Since(t0).Seconds(), err
}

// check compares one pass's outputs with the pinned digests, or,
// for a seed with none pinned, with the first pass's.
func (m *measured) check(e *benchEnv, p *passResult, err error) {
	if err == nil && m.outputs == nil {
		m.outputs = p.digests
		m.digest = passDigest(p.digests)
		if e.want == nil {
			e.want = p.digests
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pass failed:", err)
		n := max(len(e.want), 1)
		m.attempted += n
		m.failed += n
		return
	}
	for name, want := range e.want {
		m.attempted++
		if got := p.digests[name]; got != want {
			fmt.Fprintf(os.Stderr, "perfbench: %s: digest %s, want %s\n", name, got, want)
			m.failed++
		}
	}
	for name := range p.digests {
		if _, ok := e.want[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: output has no pinned digest\n", name)
			m.attempted++
			m.failed++
		}
	}
}

// safePass runs one pass, turning a panic anywhere in the simulator
// into a failed pass.
func safePass(b bench, e *benchEnv, tr *tracer) (p passResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return b.pass(e, tr)
}

// coldStart makes every pass start as a fresh process would: no pooled
// correlation-table arenas, no garbage from the previous pass, and no
// heap memory kept back from the OS, so each pass pays the same page
// faults.
func coldStart() {
	table.FlushArenaPool()
	debug.FreeOSMemory()
}

// traced measures the per-layer metrics: an untraced warm-up pass, a
// pass under spans and a CPU profile, and a second untraced pass for
// the tracing overhead and the Go runtime counters; then the probes.
// Spans and the profile are written under outDir.
func traced(b bench, e *benchEnv, outDir string) (measured, error) {
	m := measured{values: make(map[string]float64), passes: 3}
	// untraced sets the workload up afresh and runs one untraced pass,
	// reading the Go runtime's counters and peak heap around the pass
	// alone.
	var before, after runtime.MemStats
	var peakHeap float64
	untraced := func() (time.Duration, error) {
		if _, err := setUpTimed(b, e); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		coldStart()
		runtime.ReadMemStats(&before)
		hw := startHeapWatch()
		t0 := time.Now()
		p, err := safePass(b, e, nil)
		wall := time.Since(t0)
		peakHeap = hw.stop()
		runtime.ReadMemStats(&after)
		m.check(e, &p, err)
		return wall, err
	}
	if _, err := untraced(); err != nil {
		return m, err
	}

	if _, err := setUpTimed(b, e); err != nil {
		return m, fmt.Errorf("set-up: %w", err)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-s%d", e.name, e.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return m, err
	}
	tr := newTracer()
	coldStart()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return m, err
	}
	endPass := tr.begin("pass")
	t0 := time.Now()
	p, err := safePass(b, e, tr)
	tracedWall := time.Since(t0)
	endPass()
	pprof.StopCPUProfile()
	if cerr := prof.Close(); cerr != nil {
		return m, cerr
	}
	m.check(e, &p, err)
	if err != nil {
		return m, err
	}
	self, err := profileSelfFrac(base + ".cpu.pprof")
	if err != nil {
		return m, fmt.Errorf("cpu profile: %w", err)
	}
	untracedWall, err := untraced()
	if err != nil {
		return m, err
	}

	endProbe := tr.begin("probe")
	probes := layerProbes(b, e, tr)
	err = b.probe(e, tr, &p)
	endProbe()
	if err != nil {
		return m, fmt.Errorf("probe: %w", err)
	}
	if p.harness.replayChecked {
		m.attempted++
		if !p.harness.replayMatched {
			fmt.Fprintln(os.Stderr, "perfbench: warm-cache replay rendered different bytes")
			m.failed++
		}
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return m, err
	}

	v := m.values
	for k, x := range p.counts.values() {
		v[k] = x
	}
	for k, x := range probes {
		v[k] = x
	}
	for k, x := range p.harness.values(tr) {
		v[k] = x
	}
	for k, x := range self {
		v["self_frac."+k] = x
	}
	v["core.build_s"] = tr.total("core.NewSystem")
	v["core.run_s"] = tr.total("core.System.Run")
	// The simulation loop: System.Run where the workload calls it, else
	// the Runner or multicore call that contains it.
	loop := tr.within("pass", "core.System.Run") + tr.within("pass", "experiment.ExecuteAll") +
		tr.within("pass", "experiment.MulticoreMix")
	v["sim.run_ns_per_event"] = ratio(loop*1e9, float64(p.counts.events))
	v["runtime.alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["runtime.peak_heap_mib"] = peakHeap
	v["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	v["tracing.overhead_ratio"] = tracedWall.Seconds() / untracedWall.Seconds()
	return m, nil
}

// --- host memory ---

// heapWatch samples the heap's object bytes, live and not yet swept,
// to find their peak during a pass.
type heapWatch struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends the sampling and returns the peak in MiB.
func (h *heapWatch) stop() float64 {
	close(h.quit)
	<-h.done
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// --- small helpers ---

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
