package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ulmt/internal/core"
	"ulmt/internal/experiment"
	"ulmt/internal/prefetch"
	"ulmt/internal/workload"
)

// memBudget is the CLI's default -mem-budget, which every workload
// runs under.
const memBudget = 192 << 20

// benchEnv is what every workload shares within one invocation.
type benchEnv struct {
	name string
	seed uint64
	// work is a scratch directory inside the checkout, removed at exit.
	work string
	// want holds the pinned output digests for this workload and seed,
	// nil when none are pinned.
	want map[string]string
	// cacheDir is the empty cache directory freshCacheDir made last.
	cacheDir string
	nDir     int
}

// freshCacheDir empties work, dropping the cache directories of
// earlier passes, and creates an empty cacheDir for the next pass.
func (e *benchEnv) freshCacheDir() error {
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	e.cacheDir = e.newDir("cache")
	return os.MkdirAll(e.cacheDir, 0o755)
}

// newDir names a fresh directory under work (not yet created).
func (e *benchEnv) newDir(prefix string) string {
	e.nDir++
	return filepath.Join(e.work, prefix+"-"+strconv.Itoa(e.nDir))
}

// bench is one workload: set-up outside the timed region, then a
// timed pass that can be repeated.
type bench interface {
	// setUp builds the inputs of the next pass.
	setUp(e *benchEnv) error
	// setUpReps is how many set-ups endToEnd times before the first
	// pass, for the setup_s median.
	setUpReps() int
	// pass runs the timed region once over the last set-up. Spans go
	// to tr, which is nil when untraced.
	pass(e *benchEnv, tr *tracer) (passResult, error)
	// freshPerPass reports whether every pass consumes its set-up.
	freshPerPass() bool
	// inputs names the applications and scale the layer probes replay.
	inputs() ([]string, workload.Scale)
	// intraWorkers is the intra-run worker count of its machines.
	intraWorkers() int
	// probe runs, in the traced measurement, whatever the workload
	// does not reach itself: see traced.
	probe(e *benchEnv, tr *tracer, p *passResult) error
}

// passResult is what one timed pass delivered.
type passResult struct {
	// ops counts simulated workload ops over every run whose results
	// the pass delivered.
	ops uint64
	// digests maps each output of the pass to its digest.
	digests map[string]string
	counts  layerCounts
	harness harnessStats
}

func workloadNames() string {
	return "paper-matrix, chase-repl, stream-noulmt, multicore-shard"
}

func newBench(name string) (bench, bool) {
	switch name {
	case "paper-matrix":
		return &matrixBench{}, true
	case "chase-repl":
		return &singleBench{
			apps:   []string{"Mcf", "MST", "Parser"},
			labels: []string{experiment.CfgRepl},
		}, true
	case "stream-noulmt":
		return &singleBench{
			apps:   []string{"CG", "FT", "Gap", "Sparse", "Tree"},
			labels: []string{experiment.CfgNoPref, experiment.CfgConven4},
		}, true
	case "multicore-shard":
		return &multiBench{}, true
	}
	return nil, false
}

// --- paper-matrix: the -exp all plan through experiment.Runner ---

// matrixBench is `ulmtsim -exp all -scale tiny -j 1` with fork on and
// a fresh cache directory, exactly as a CLI invocation runs it.
// Set-up is only runner construction; op generation, trace
// extraction and sizing run inside the timed pass, as they do for a
// CLI user.
type matrixBench struct {
	r   *experiment.Runner
	dir string
}

func (m *matrixBench) options(e *benchEnv, dir string) experiment.Options {
	return experiment.Options{
		Scale: workload.ScaleTiny, Seed: e.seed, Jobs: 1, MaxRetries: 2,
		CacheDir: dir, MemBudget: memBudget,
	}
}

func (m *matrixBench) setUp(e *benchEnv) error {
	m.dir = e.cacheDir
	r, err := newRunner(m.options(e, m.dir))
	m.r = r
	return err
}

// Runner construction takes microseconds, so many samples make its
// median steady.
func (m *matrixBench) setUpReps() int     { return 201 }
func (m *matrixBench) freshPerPass() bool { return true }
func (m *matrixBench) inputs() ([]string, workload.Scale) {
	return workload.Names(), workload.ScaleTiny
}
func (m *matrixBench) intraWorkers() int { return 1 }

func (m *matrixBench) pass(e *benchEnv, tr *tracer) (passResult, error) {
	r := m.r
	m.r = nil
	if r == nil {
		return passResult{}, fmt.Errorf("paper-matrix: pass without set-up")
	}
	res := passResult{digests: make(map[string]string)}
	digest, keys, err := runMatrix(r, experiment.AllOrder, tr)
	if err != nil {
		return res, err
	}
	res.digests["report"] = digest
	for _, k := range keys {
		out := r.Run(k.App, k.Label)
		res.ops += out.OpsRetired
		res.counts.addRun(out)
	}
	res.harness = harnessOf(r)
	return res, nil
}

// runMatrix plans, executes and renders exps on r, returning the
// report's sha256 and the planned keys.
func runMatrix(r *experiment.Runner, exps []string, tr *tracer) (string, []experiment.RunKey, error) {
	end := tr.begin("experiment.PlanRuns")
	keys := r.PlanRuns(exps)
	end()
	end = tr.begin("experiment.ExecuteAll")
	err := r.ExecuteAll(context.Background(), keys, 1, nil)
	end()
	if err != nil {
		return "", nil, err
	}
	end = tr.begin("experiment.Render")
	h := sha256.New()
	for _, exp := range exps {
		if err := r.Render(h, exp); err != nil {
			end()
			return "", nil, err
		}
	}
	end()
	return fmt.Sprintf("%x", h.Sum(nil)), keys, nil
}

func (m *matrixBench) probe(e *benchEnv, tr *tracer, p *passResult) error {
	// The pass's cache directory is still in place: replay it warm
	// through a second Runner, which must render the same bytes.
	if err := warmReplay(m.options(e, m.dir), experiment.AllOrder, p.digests["report"], tr, &p.harness); err != nil {
		return err
	}
	// The matrix reaches the machine only through the Runner; a core
	// probe times core.NewSystem and System.Run directly.
	r, err := newRunner(m.options(e, e.newDir("cache")))
	if err != nil {
		return err
	}
	apps, _ := m.inputs()
	return coreProbe(r, apps, tr, &p.counts)
}

// --- chase-repl and stream-noulmt: single-core, harness-free ---

// singleBench runs every (app, label) machine directly: built from
// Runner.BuildConfig and run by core.NewSystem(cfg).Run, at medium
// scale. Set-up generates the op streams, extracts the miss traces
// and applies the Table 2 sizing.
type singleBench struct {
	apps   []string
	labels []string
	r      *experiment.Runner
}

func (s *singleBench) setUp(e *benchEnv) error {
	opt := experiment.Options{
		Scale: workload.ScaleMedium, Seed: e.seed, Apps: s.apps, Jobs: 1, MemBudget: memBudget,
	}
	r, err := newRunner(opt)
	if err != nil {
		return err
	}
	s.r = r
	for _, app := range s.apps {
		s.r.NumRows(app)
	}
	return nil
}

func (s *singleBench) setUpReps() int                     { return 3 }
func (s *singleBench) freshPerPass() bool                 { return false }
func (s *singleBench) inputs() ([]string, workload.Scale) { return s.apps, workload.ScaleMedium }
func (s *singleBench) intraWorkers() int                  { return 1 }

func (s *singleBench) pass(e *benchEnv, tr *tracer) (passResult, error) {
	res := passResult{digests: make(map[string]string)}
	for _, app := range s.apps {
		for _, label := range s.labels {
			out, err := runMachine(s.r, app, label, tr, &res.counts)
			if err != nil {
				return res, err
			}
			res.digests[app+"/"+label] = digestResults(out)
			res.ops += out.OpsRetired
		}
	}
	return res, nil
}

// runMachine builds and runs one single-core machine, recording its
// counters and recycling its correlation tables.
func runMachine(r *experiment.Runner, app, label string, tr *tracer, c *layerCounts) (core.Results, error) {
	cfg := r.BuildConfig(app, label)
	defer prefetch.RecycleTables(cfg.ULMT)
	end := tr.begin("core.NewSystem")
	sys, err := core.NewSystem(cfg)
	end()
	if err != nil {
		return core.Results{}, fmt.Errorf("%s/%s: %w", app, label, err)
	}
	end = tr.begin("core.System.Run")
	out := sys.Run(app, r.Ops(app))
	end()
	out.Label = label
	c.addRun(out)
	// Read the table's counters before the deferred recycle drops it.
	if rp, ok := cfg.ULMT.(*prefetch.Repl); ok {
		c.addTable(rp.T.Stats())
	}
	return out, nil
}

func (s *singleBench) probe(e *benchEnv, tr *tracer, p *passResult) error {
	return harnessProbe(e, s.apps, tr, &p.harness)
}

// --- multicore-shard: the windowed multi-core machine ---

// multiBench runs Runner.MulticoreMix(4, false) and (4, true) over
// the Mcf,CG mix at small scale, with the shared table sharded across
// two memory threads and two intra-run workers.
type multiBench struct {
	r *experiment.Runner
}

var multiApps = []string{"Mcf", "CG"}

const (
	multiCores  = 4
	multiShards = 2
	multiIntraJ = 2
)

func (m *multiBench) setUp(e *benchEnv) error {
	opt := experiment.Options{
		Scale: workload.ScaleSmall, Seed: e.seed, Apps: multiApps, Jobs: 1,
		Shards: multiShards, IntraJobs: multiIntraJ, MemBudget: memBudget,
	}
	r, err := newRunner(opt)
	if err != nil {
		return err
	}
	m.r = r
	for _, app := range multiApps {
		m.r.NumRows(app)
	}
	return nil
}

func (m *multiBench) setUpReps() int                     { return 5 }
func (m *multiBench) freshPerPass() bool                 { return false }
func (m *multiBench) inputs() ([]string, workload.Scale) { return multiApps, workload.ScaleSmall }
func (m *multiBench) intraWorkers() int                  { return multiIntraJ }

func (m *multiBench) pass(e *benchEnv, tr *tracer) (passResult, error) {
	res := passResult{digests: make(map[string]string)}
	for _, pref := range []bool{false, true} {
		end := tr.begin("experiment.MulticoreMix")
		out, _ := m.r.MulticoreMix(multiCores, pref)
		end()
		name := fmt.Sprintf("%dcore/NoPref", multiCores)
		if pref {
			name = fmt.Sprintf("%dcore/Repl-%dshards", multiCores, multiShards)
		}
		res.digests[name] = digestMulticore(out)
		res.counts.addMachine(out)
		for _, c := range out.Cores {
			res.ops += c.OpsRetired
		}
	}
	return res, nil
}

func (m *multiBench) probe(e *benchEnv, tr *tracer, p *passResult) error {
	if err := coreProbe(m.r, multiApps, tr, &p.counts); err != nil {
		return err
	}
	return harnessProbe(e, multiApps, tr, &p.harness)
}

// --- digests ---

// digestResults hashes every simulated field of a run. EventsFired is
// host-side churn, not simulated behaviour, and is left out; the
// miss-distance histogram is hashed by value, not by pointer.
func digestResults(r core.Results) string {
	h := sha256.New()
	writeResults(h, r)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func writeResults(h interface{ Write([]byte) (int, error) }, r core.Results) {
	hist := r.MissDistance
	r.MissDistance = nil
	r.EventsFired = 0
	fmt.Fprintf(h, "%+v\n", r)
	if hist != nil {
		fmt.Fprintf(h, "%+v\n", *hist)
	}
}

func digestMulticore(m core.MulticoreResults) string {
	h := sha256.New()
	for _, c := range m.Cores {
		writeResults(h, c)
	}
	m.Cores = nil
	m.EventsFired = 0
	fmt.Fprintf(h, "%+v\n", m)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// passDigest folds a pass's output digests into one short digest.
func passDigest(d map[string]string) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + d[k] + "\n")
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}
