package experiment

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ulmt/internal/fault"
	"ulmt/internal/workload"
)

// equivOptions is the matrix the determinism-equivalence suite runs
// over: two contrasting apps (Mcf pointer-chasing, CG streaming) at
// tiny scale; the sweep and ablation reports pull in MST and the
// remaining labels on their own.
func equivOptions(plan *fault.Plan) Options {
	return Options{
		Scale:  workload.ScaleTiny,
		Apps:   []string{"Mcf", "CG"},
		Seed:   1,
		Faults: plan,
	}
}

// equivExperiments is every renderable report, in the -exp all order
// plus the faults summary.
func equivExperiments() []string {
	return append(append([]string(nil), AllOrder...), "faults")
}

// renderAt produces the full report byte stream at a worker count:
// jobs == 1 exercises the pure serial path (no pool at all), jobs > 1
// pre-executes the planned run matrix on that many workers before
// rendering.
func renderAt(t *testing.T, opt Options, jobs int) []byte {
	t.Helper()
	r := NewRunner(opt)
	exps := equivExperiments()
	if jobs > 1 {
		if err := r.ExecuteAll(nil, r.PlanRuns(exps), jobs, nil); err != nil {
			t.Fatalf("ExecuteAll: %v", err)
		}
	}
	var buf bytes.Buffer
	for _, exp := range exps {
		if err := r.Render(&buf, exp); err != nil {
			t.Fatalf("render %s: %v", exp, err)
		}
	}
	return buf.Bytes()
}

// TestParallelEquivalence is the co-headline guarantee of the
// parallel engine: the full report output is byte-identical to the
// serial path at every worker count, with and without a fault plan.
func TestParallelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"NoFaults", nil},
		{"LightFaults", fault.Light(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := renderAt(t, equivOptions(tc.plan), 1)
			if len(want) == 0 {
				t.Fatal("serial render produced no output")
			}
			for _, jobs := range []int{2, 4, 8} {
				got := renderAt(t, equivOptions(tc.plan), jobs)
				if !bytes.Equal(got, want) {
					t.Errorf("-j %d output differs from serial: %s",
						jobs, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d: serial %q vs parallel %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: serial %d lines, parallel %d lines", len(wl), len(gl))
}

// TestPlanCoversRender proves the declared run sets are complete:
// after executing the planned matrix, rendering every report performs
// zero additional simulations.
func TestPlanCoversRender(t *testing.T) {
	r := NewRunner(equivOptions(nil))
	exps := equivExperiments()
	keys := r.PlanRuns(exps)
	if len(keys) == 0 {
		t.Fatal("empty plan")
	}
	if err := r.ExecuteAll(nil, keys, 4, nil); err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	// Every planned key is either simulated or an identity alias
	// served from its app's Repl run (aliasOf); nothing is skipped and
	// nothing runs twice. The plan holds exactly two aliases on each
	// sweep app (Sweep/NumLevels=3, Sweep/NumRows*1).
	planned := r.RunsComputed()
	if planned+r.ForkedRuns() != uint64(len(keys)) {
		t.Fatalf("computed %d + aliased %d runs != %d planned keys", planned, r.ForkedRuns(), len(keys))
	}
	if r.ForkedRuns() != 4 {
		t.Errorf("aliased %d runs, want 4 (two identity aliases on each sweep app)", r.ForkedRuns())
	}
	for _, exp := range exps {
		if err := r.Render(io.Discard, exp); err != nil {
			t.Fatalf("render %s: %v", exp, err)
		}
	}
	if after := r.RunsComputed(); after != planned {
		t.Errorf("rendering computed %d runs not declared in the plan", after-planned)
	}
}

// TestPlanDedupes checks the union planner drops repeated keys (the
// NoPref baseline appears in nearly every experiment).
func TestPlanDedupes(t *testing.T) {
	r := NewRunner(equivOptions(nil))
	keys := r.PlanRuns(equivExperiments())
	seen := make(map[RunKey]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Errorf("duplicate planned run %+v", k)
		}
		seen[k] = true
	}
}

// TestExecuteAllProgress checks the completion callback counts every
// run exactly once and reaches (total, total).
func TestExecuteAllProgress(t *testing.T) {
	r := NewRunner(Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1})
	keys := r.ExperimentRuns("fig6")
	var mu sync.Mutex
	var calls int
	var max int
	err := r.ExecuteAll(nil, keys, 3, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > max {
			max = done
		}
		if total != len(keys) {
			t.Errorf("total = %d, want %d", total, len(keys))
		}
	})
	if err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	if calls != len(keys) || max != len(keys) {
		t.Errorf("callback calls = %d, max done = %d, want both %d", calls, max, len(keys))
	}
}

// TestSingleFlightRace hammers the Runner's four memo caches from
// many goroutines (run under -race in CI). Sharing the backing array
// of the returned slices proves each derivation ran exactly once.
func TestSingleFlightRace(t *testing.T) {
	r := NewRunner(Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf", "CG"}, Seed: 1})
	const goroutines = 16
	type view struct {
		ops   *workload.Op
		trace int
		rows  int
		cyc   uint64
	}
	views := make([]view, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			app := []string{"Mcf", "CG"}[i%2]
			ops := r.Ops(app)
			tr := r.MissTrace(app)
			views[i] = view{
				ops:   &ops[0],
				trace: len(tr),
				rows:  r.NumRows(app),
				cyc:   uint64(r.Run(app, CfgNoPref).Cycles),
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 2; i < goroutines; i++ {
		ref := views[i%2]
		if views[i].ops != ref.ops {
			t.Errorf("goroutine %d saw a different op stream instance (computed more than once)", i)
		}
		if views[i].trace != ref.trace || views[i].rows != ref.rows || views[i].cyc != ref.cyc {
			t.Errorf("goroutine %d saw different derived values: %+v vs %+v", i, views[i], ref)
		}
	}
}

// TestMemoSingleFlight checks the memo primitive directly: one
// computation per key under heavy concurrency, every caller sharing
// its result.
func TestMemoSingleFlight(t *testing.T) {
	m := newMemo[int, int]()
	var computes [4]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	const goroutines = 64
	results := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := i % len(computes)
			results[i] = m.get(key, func() int {
				mu.Lock()
				computes[key]++
				mu.Unlock()
				return 100 + key
			})
		}(i)
	}
	wg.Wait()
	for key, n := range computes {
		if n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", key, n)
		}
	}
	for i, got := range results {
		if want := 100 + i%len(computes); got != want {
			t.Errorf("goroutine %d got %d, want %d", i, got, want)
		}
	}
}

// TestOptionsValidate pins the no-panic contract: unknown apps are
// reported with the valid names, not discovered by a panic later,
// and contradictory or nonsensical knob settings are rejected up
// front instead of silently defaulted.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{Apps: []string{"Mcf", "CG"}, Jobs: 1}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	err := (Options{Apps: []string{"mcf"}, Jobs: 1}).Validate()
	if err == nil {
		t.Fatal("lower-case app name accepted")
	}
	for _, name := range workload.Names() {
		if !bytes.Contains([]byte(err.Error()), []byte(name)) {
			t.Errorf("error %q does not list valid name %s", err, name)
		}
	}
	if err := (Options{Scale: workload.Scale(99), Jobs: 1}).Validate(); err == nil {
		t.Error("out-of-range scale accepted")
	}
	if err := (Options{}).Validate(); err == nil {
		t.Error("zero worker count accepted")
	}
	if err := (Options{Jobs: -3}).Validate(); err == nil {
		t.Error("negative worker count accepted")
	}
	if err := (Options{Jobs: 1, Cores: -1}).Validate(); err == nil {
		t.Error("negative core count accepted")
	}
	if err := (Options{Jobs: 1, Shards: -1}).Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	if err := (Options{Jobs: 1, RunTimeout: -3 * time.Second}).Validate(); err == nil {
		t.Error("negative run timeout accepted")
	}
}
