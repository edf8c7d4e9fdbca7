// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's public packages, checks every
// simulated output against a pinned digest, and prints its metrics
// by name and unit. The metric set is read from BENCHMARK.json at the
// repository root, so the program and that file cannot drift apart.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics: it sets up the
// workload several times, then repeats the timed region for about
// --seconds and reports medians. With --trace 1 it runs the timed
// region once untraced and once under spans and a CPU profile, runs
// the layer replay drivers over the workload's own inputs, and
// reports the per-layer metrics. The last line of standard output is
// the result object; the line before it is the full record, with
// provenance. perfbench/compare.py diffs two files of captured output.
// See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value, as the result object carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one full result record: the result plus what produced it.
type record struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        int       `json:"trace"`
	Seconds      int       `json:"seconds"`
	Passes       int       `json:"passes"`
	PassWalls    []float64 `json:"pass_walls_s"`
	Digest       string    `json:"digest"`
	DigestPinned bool      `json:"digest_pinned"`
	// Outputs are the first pass's per-output digests, the values
	// pinned.json pins.
	Outputs    map[string]string `json:"outputs"`
	Provenance provenance        `json:"provenance"`
	// NotExercised names the layers no workload reaches, on traced
	// records, so their absence from the per-layer metrics is explicit.
	NotExercised []string `json:"not_exercised,omitempty"`
	result
}

// provenance says where a record was measured. Parallel speed-ups are
// only readable off records with HostVCPUs > 1.
type provenance struct {
	// NProc and HostVCPUs are both runtime.NumCPU: the logical CPUs
	// this process may run on, which is what nproc prints.
	NProc        int    `json:"nproc"`
	HostVCPUs    int    `json:"host_vcpus"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	Seed         uint64 `json:"seed"`
	IntraWorkers int    `json:"intra_workers"`
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func run() error {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "page-mapping seed of every simulated machine")
	seconds := flag.Int("seconds", 20, "length of the timed region in seconds (untraced runs)")
	traceFlag := flag.Int("trace", 0, "1 runs the traced layer measurement instead of the end-to-end one")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	b, ok := newBench(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}

	// The CLI's runtime defaults: a 192 MiB retained-memory budget
	// (set per Runner) and the GC target it implies.
	debug.SetGCPercent(50)

	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", "work-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	env := &benchEnv{name: *name, seed: *seed, work: work, want: pins.lookup(*name, *seed)}
	pinned := env.want != nil
	var m measured
	declared := sp.EndToEnd
	if *traceFlag == 1 {
		declared = sp.PerLayer
		m, err = traced(b, env, filepath.Dir(work))
	} else {
		m, err = endToEnd(b, env, *seconds)
	}
	if err != nil {
		return err
	}

	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]metric, len(declared))}
	res.Correct = m.failed == 0 && m.attempted > 0
	for _, d := range declared {
		v, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %q declared in BENCHMARK.json was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if extra := missingFrom(m.values, declared); len(extra) > 0 {
		return fmt.Errorf("measured metrics not declared in BENCHMARK.json: %v", extra)
	}

	rec := record{
		Workload: *name, Seed: *seed, Trace: *traceFlag, Seconds: *seconds,
		Passes: m.passes, PassWalls: m.walls, Digest: m.digest, DigestPinned: pinned, Outputs: m.outputs,
		Provenance: provenance{
			NProc: runtime.NumCPU(), HostVCPUs: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: *seed, IntraWorkers: b.intraWorkers(),
		},
		result: res,
	}
	if *traceFlag == 1 {
		rec.NotExercised = []string{"checkpoint", "fault"}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	fmt.Println(string(last))
	return nil
}

// measured is what a measurement mode hands back to run.
type measured struct {
	values    map[string]float64
	attempted int
	failed    int
	passes    int
	walls     []float64
	digest    string
	outputs   map[string]string
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, fmt.Errorf("%s declares no metrics", path)
	}
	return s, nil
}

// missingFrom lists the measured names no declared metric covers.
func missingFrom(values map[string]float64, declared []specMetric) []string {
	known := make(map[string]bool, len(declared))
	for _, d := range declared {
		known[d.Name] = true
	}
	var extra []string
	for k := range values {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}

// commit is the revision perfbench/run.sh found, "unknown" outside a
// git work tree.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
