package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ulmt/internal/workload"
)

// openTestCache builds a cache over a fresh (or shared) directory for
// one option set, failing the test on any setup error.
func openTestCache(t *testing.T, dir string, opt Options) *Cache {
	t.Helper()
	c, err := OpenCache(dir, opt)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	return c
}

// renderCached produces the full report byte stream through a cache,
// returning the runner so callers can inspect its counters. jobs == 1
// follows the serial path (no pool); jobs > 1 pre-executes the
// planned matrix on the worker pool.
func renderCached(t *testing.T, opt Options, jobs int, dir string) ([]byte, *Runner) {
	t.Helper()
	r := NewRunner(opt)
	r.AttachCache(openTestCache(t, dir, opt))
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
	return buf.Bytes(), r
}

// TestCacheWarmEquivalence is the headline guarantee of the run
// cache: across worker counts, a cold cached invocation renders
// byte-identically to the uncached oracle, and a warm invocation
// renders the same bytes again while computing zero simulations —
// even when the warm invocation uses a different worker count than
// the one that filled the cache, since entries are keyed by what a
// run IS, not how it was produced.
func TestCacheWarmEquivalence(t *testing.T) {
	want := renderAt(t, equivOptions(nil), 1) // the no-cache oracle
	if len(want) == 0 {
		t.Fatal("oracle render produced no output")
	}
	for _, tc := range []struct {
		name               string
		coldJobs, warmJobs int
	}{
		{"Serial", 1, 1},
		{"J4", 4, 4},
		{"SerialWarmJ4", 1, 4},
		{"J4WarmSerial", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cold, coldR := renderCached(t, equivOptions(nil), tc.coldJobs, dir)
			if !bytes.Equal(cold, want) {
				t.Fatalf("cold cached output differs from oracle: %s", firstDiff(want, cold))
			}
			if h := coldR.cache.Hits(); h != 0 {
				t.Errorf("cold run reported %d cache hits in an empty directory", h)
			}
			if coldR.cache.Misses() == 0 {
				t.Error("cold run reported no cache misses")
			}

			warm, warmR := renderCached(t, equivOptions(nil), tc.warmJobs, dir)
			if !bytes.Equal(warm, want) {
				t.Fatalf("warm cached output differs from oracle: %s", firstDiff(want, warm))
			}
			if n := warmR.RunsComputed(); n != 0 {
				t.Errorf("warm run computed %d simulations, want 0", n)
			}
			if m := warmR.cache.Misses(); m != 0 {
				t.Errorf("warm run reported %d cache misses, want 0", m)
			}
			if warmR.cache.Hits() == 0 {
				t.Error("warm run reported no cache hits")
			}
		})
	}
}

// TestCacheStaleVersion pins the invalidation contract: entries
// written under an older behavior version are detected as stale,
// counted, recomputed — and never served, so a stale cache can cost
// time but cannot change a byte of output.
func TestCacheStaleVersion(t *testing.T) {
	opt := Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
	oracle := func() []byte {
		r := NewRunner(opt)
		var buf bytes.Buffer
		for _, exp := range []string{"table2", "fig5", "fig6"} {
			if err := r.Render(&buf, exp); err != nil {
				t.Fatalf("render %s: %v", exp, err)
			}
		}
		return buf.Bytes()
	}
	want := oracle()

	dir := t.TempDir()
	render := func() ([]byte, *Runner) {
		r := NewRunner(opt)
		r.AttachCache(openTestCache(t, dir, opt))
		var buf bytes.Buffer
		for _, exp := range []string{"table2", "fig5", "fig6"} {
			if err := r.Render(&buf, exp); err != nil {
				t.Fatalf("render %s: %v", exp, err)
			}
		}
		return buf.Bytes(), r
	}

	if cold, _ := render(); !bytes.Equal(cold, want) {
		t.Fatalf("cold cached output differs: %s", firstDiff(want, cold))
	}
	if warm, r := render(); !bytes.Equal(warm, want) {
		t.Fatalf("warm cached output differs: %s", firstDiff(want, warm))
	} else if r.cache.Stale() != 0 || r.cache.Misses() != 0 {
		t.Fatalf("warm same-version run: stale %d, misses %d, want 0/0", r.cache.Stale(), r.cache.Misses())
	}

	// Simulate a behavior-version bump: every existing entry must read
	// as stale (a counted miss), output must still match, and the
	// recomputed entries must overwrite in place so a second run under
	// the new version is fully warm again.
	cacheVersion++
	defer func() { cacheVersion-- }()
	bumped, r := render()
	if !bytes.Equal(bumped, want) {
		t.Fatalf("stale-cache output differs (stale entries served?): %s", firstDiff(want, bumped))
	}
	if r.cache.Stale() == 0 {
		t.Error("version bump produced no stale lookups")
	}
	if r.cache.Hits() != 0 {
		t.Errorf("version bump served %d hits from old-version entries", r.cache.Hits())
	}
	rewarm, r2 := render()
	if !bytes.Equal(rewarm, want) {
		t.Fatalf("re-warmed output differs: %s", firstDiff(want, rewarm))
	}
	if r2.cache.Misses() != 0 || r2.cache.Stale() != 0 {
		t.Errorf("entries not overwritten under new version: misses %d, stale %d", r2.cache.Misses(), r2.cache.Stale())
	}
}

// TestCacheCorruptEntry checks a truncated or garbage entry is
// treated as stale and recomputed, never rendered.
func TestCacheCorruptEntry(t *testing.T) {
	opt := Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
	dir := t.TempDir()
	r := NewRunner(opt)
	r.AttachCache(openTestCache(t, dir, opt))
	want := r.Run("Mcf", CfgNoPref)

	entries, err := filepath.Glob(filepath.Join(dir, "cache", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written (err %v)", err)
	}
	for _, e := range entries {
		if err := os.WriteFile(e, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2 := NewRunner(opt)
	r2.AttachCache(openTestCache(t, dir, opt))
	got := r2.Run("Mcf", CfgNoPref)
	if got.Cycles != want.Cycles || got.EventsFired != want.EventsFired {
		t.Fatalf("recomputed run differs: %+v vs %+v", got, want)
	}
	if r2.cache.Stale() == 0 {
		t.Error("corrupt entry not counted stale")
	}
	if r2.RunsComputed() != 1 {
		t.Errorf("corrupt entry not recomputed: %d runs", r2.RunsComputed())
	}
}

// FuzzCacheKey proves the canonical key encoding injective and
// lossless: distinct (kind, app, label) refs never encode to the same
// bytes (so distinct RunKeys or Options can never collide in the
// cache), and every encoding decodes back to exactly its inputs.
func FuzzCacheKey(f *testing.F) {
	f.Add("run", "Mcf", "Repl", "run", "Mcf", "NoPref", uint64(1))
	f.Add("sizing", "CG", "", "run", "CG", "", uint64(1))
	f.Add("run", "a", "bc", "run", "ab", "c", uint64(7))
	f.Add("", "", "", "", "", "", uint64(0))
	f.Fuzz(func(t *testing.T, kind1, app1, label1, kind2, app2, label2 string, version uint64) {
		var fp [32]byte
		fp[0] = byte(version)
		ref1 := cacheRef{Kind: kind1, App: app1, Label: label1}
		ref2 := cacheRef{Kind: kind2, App: app2, Label: label2}
		enc1 := encodeCacheKey(ref1, fp, version)
		enc2 := encodeCacheKey(ref2, fp, version)
		if ref1 != ref2 && bytes.Equal(enc1, enc2) {
			t.Fatalf("distinct refs %+v and %+v encode identically", ref1, ref2)
		}
		if ref1 == ref2 && !bytes.Equal(enc1, enc2) {
			t.Fatalf("equal refs encode differently")
		}
		gotRef, gotFP, gotV, err := decodeCacheKey(enc1)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", ref1, err)
		}
		if gotRef != ref1 || gotFP != fp || gotV != version {
			t.Fatalf("round-trip mismatch: got (%+v, %x, %d), want (%+v, %x, %d)",
				gotRef, gotFP[:4], gotV, ref1, fp[:4], version)
		}
		// A version change alone must also change the encoding: stale
		// detection depends on it.
		encBumped := encodeCacheKey(ref1, fp, version+1)
		if bytes.Equal(enc1, encBumped) {
			t.Fatal("version bump did not change the encoding")
		}
	})
}
