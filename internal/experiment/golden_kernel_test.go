package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ulmt/internal/core"
	"ulmt/internal/workload"
)

// The golden fingerprint file was generated with the original
// container/heap event queue before the bucket wheel existed (go test
// ./internal/experiment -run TestGoldenKernel -update-golden); that
// queue now survives only as the test-side reference in internal/sim.
// Every kernel since must reproduce it bit for bit: the per-run
// digests cover demand misses, the full cache statistics, the final
// cache-content fingerprint and the run length, and the report digest
// covers every rendered byte of `-exp all`. Regenerating this file is
// only legitimate when the simulated machine model itself changes,
// never for a scheduler swap.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fingerprints")

const goldenPath = "testdata/golden_tiny.json"

type goldenFile struct {
	// Runs maps "App/Label" to a digest of that run's Results.
	Runs map[string]string `json:"runs"`
	// ReportSHA256 hashes the concatenated rendered reports of
	// `-exp all` in canonical order.
	ReportSHA256 string `json:"report_sha256"`
}

// runDigest formats the determinism-relevant core of one run. It
// deliberately spells out the fields the issue's acceptance criteria
// name (demand misses, cache stats, final fingerprint) plus the
// quantities everything else is derived from.
func runDigest(res core.Results) string {
	return fmt.Sprintf(
		"cycles=%d demand=%d prefreq=%d pushes=%d ops=%d "+
			"l1=%+v l2=%+v cachefp=%016x "+
			"outcomes=%+v bus=%+v dram=%+v "+
			"filter=%d q2=%d q3=%d xmd=%d xmp=%d",
		res.Cycles, res.DemandMissesToMemory, res.PrefetchReqsToMemory,
		res.PushesToL2, res.OpsRetired,
		res.L1, res.L2, res.CacheFP,
		res.Outcomes, res.Bus, res.DRAM,
		res.FilterDropped, res.Q2Drops, res.Q3Drops,
		res.CrossMatchedDemand, res.CrossMatchedPush)
}

// collectGolden executes the whole `-exp all` matrix at tiny scale
// and returns the fingerprints.
func collectGolden(t *testing.T) goldenFile {
	t.Helper()
	r := NewRunner(Options{Scale: workload.ScaleTiny, Seed: 1})
	keys := r.PlanRuns(AllOrder)
	if err := r.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}

	g := goldenFile{Runs: make(map[string]string, len(keys))}
	for _, k := range keys {
		g.Runs[k.App+"/"+k.Label] = runDigest(r.Run(k.App, k.Label))
	}
	var buf bytes.Buffer
	for _, e := range AllOrder {
		if err := r.Render(&buf, e); err != nil {
			t.Fatalf("render %s: %v", e, err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	g.ReportSHA256 = hex.EncodeToString(sum[:])
	return g
}

// TestGoldenKernel proves the event kernel reproduces the
// pre-recorded run matrix bit for bit.
func TestGoldenKernel(t *testing.T) {
	got := collectGolden(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", goldenPath, len(got.Runs))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	var names []string
	for k := range want.Runs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		if got.Runs[name] != want.Runs[name] {
			t.Errorf("run %s diverged from golden:\n got  %s\n want %s",
				name, got.Runs[name], want.Runs[name])
		}
	}
	if len(got.Runs) != len(want.Runs) {
		t.Errorf("run matrix size changed: got %d runs, golden has %d",
			len(got.Runs), len(want.Runs))
	}
	if got.ReportSHA256 != want.ReportSHA256 {
		t.Errorf("rendered `-exp all` report diverged from golden:\n got  %s\n want %s",
			got.ReportSHA256, want.ReportSHA256)
	}
}
