package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ulmt/internal/core"
	"ulmt/internal/fault"
	"ulmt/internal/stats"
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

// TestCacheRunRoundTrip proves a cached run reloads exactly — every
// field of core.Results, including the histogram and float
// derivatives — through a freshly opened cache, so a replayed
// invocation renders byte-identical reports.
func TestCacheRunRoundTrip(t *testing.T) {
	opt := Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
	dir := t.TempDir()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	res := NewRunner(opt).Run(k.App, k.Label)
	openTestCache(t, dir, opt).SaveRun(k, res)
	got, ok := openTestCache(t, dir, opt).LoadRun(k)
	if !ok {
		t.Fatal("saved run not served")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("cached run round-trip diverges:\n got %+v\nwant %+v", got, res)
	}
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

// TestCacheAddressPinned pins one entry's on-disk address. The
// address hashes the run key and the Options fingerprint text, so an
// edit to that text (a renamed field, a dropped literal) silently
// orphans every entry an earlier build wrote: they are never found
// again, read as misses rather than stale, and are recomputed. Such
// an edit is only legitimate together with a CacheBehaviorVersion
// bump, which is when this pin is re-recorded.
func TestCacheAddressPinned(t *testing.T) {
	const (
		pinnedVersion = 2
		want          = "1f936d44a2584b9da5fc301215db200b2924862bccfc6b2a5d6a99bc9ecff2b1"
	)
	got := entryAddr(runRef(RunKey{App: "Mcf", Label: CfgRepl}),
		Options{Scale: workload.ScaleTiny, Seed: 1}.fingerprint())
	if CacheBehaviorVersion != pinnedVersion {
		t.Fatalf("CacheBehaviorVersion is %d, pin was recorded at %d: re-record pinnedVersion and want (address now %s)",
			CacheBehaviorVersion, pinnedVersion, got)
	}
	if got != want {
		t.Fatalf("Mcf/Repl tiny seed-1 cache address moved without a CacheBehaviorVersion bump:\n got  %s\n want %s",
			got, want)
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

// TestCacheFaultSeedsNeverShare requires every fault plan to address
// its own entries: plans that differ only in their seed, plans that
// differ in their rates, and no plan at all never share a
// fingerprint, and a cache filled under one fault seed serves nothing
// to another.
func TestCacheFaultSeedsNeverShare(t *testing.T) {
	seen := map[[32]byte]string{Options{Scale: workload.ScaleTiny, Seed: 1}.fingerprint(): "no plan"}
	for _, spec := range []string{"light", "heavy", "drop-obs=500"} {
		for _, seed := range []uint64{1, 2} {
			plan, err := fault.ParseSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s at fault seed %d", spec, seed)
			fp := Options{Scale: workload.ScaleTiny, Seed: 1, Faults: plan}.fingerprint()
			if other, ok := seen[fp]; ok {
				t.Errorf("%s shares its cache fingerprint with %s", name, other)
			}
			seen[fp] = name
		}
	}

	optAt := func(faultSeed uint64) Options {
		opt := resumeOptions()
		opt.Faults = fault.Light(faultSeed)
		return opt
	}
	k := RunKey{App: "Mcf", Label: CfgRepl}
	dir := t.TempDir()
	cacheDirRunner(t, optAt(1), dir).Run(k.App, k.Label)
	r := cacheDirRunner(t, optAt(2), dir)
	got := r.Run(k.App, k.Label)
	if r.cache.Hits() != 0 || r.RunsComputed() != 1 {
		t.Errorf("fault seed 2 over a seed-1 cache: hits %d, computed %d; want 0 and 1", r.cache.Hits(), r.RunsComputed())
	}
	if want := NewRunner(optAt(2)).Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
		t.Error("fault seed 2 over a seed-1 cache diverges from an uncached seed-2 run")
	}
}

// rewriteRunEntry decodes k's cache entry, lets edit change its
// Results, and writes the entry back. With resum the envelope's
// checksum is recomputed over the edited payload, so only
// core.Results.Check can tell the entry from a genuine one; without
// it the old checksum stays.
func rewriteRunEntry(t *testing.T, c *Cache, k RunKey, resum bool, edit func(*core.Results)) {
	t.Helper()
	path := c.path(runRef(k))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env cacheEnvelope
	var res core.Results
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &res); err != nil {
		t.Fatal(err)
	}
	edit(&res)
	if env.Payload, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if resum {
		env.Sum = payloadSum(env.Payload)
	}
	if b, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheTamperedEntry edits a run entry's payload into valid JSON
// with a wrong meaning. An edit that keeps every machine invariant but
// leaves the old checksum is caught by the checksum; halving Cycles
// under a recomputed checksum is caught by core.Results.Check alone.
// Either way the entry reads stale once, the run is recomputed to the
// original result, and the overwritten entry replays.
func TestCacheTamperedEntry(t *testing.T) {
	opt := resumeOptions()
	k := RunKey{App: "Mcf", Label: CfgRepl}
	for _, tc := range []struct {
		name  string
		resum bool
		edit  func(*core.Results)
	}{
		{"Checksum", false, func(r *core.Results) { r.DemandMissesToMemory++ }},
		{"Check", true, func(r *core.Results) { r.Cycles /= 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := cacheDirRunner(t, opt, dir)
			want := r1.Run(k.App, k.Label)
			rewriteRunEntry(t, r1.cache, k, tc.resum, tc.edit)

			r2 := cacheDirRunner(t, opt, dir)
			if got := r2.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
				t.Errorf("tampered entry served:\n got %+v\nwant %+v", got, want)
			}
			if r2.cache.Stale() != 1 || r2.RunsComputed() != 1 {
				t.Errorf("tampered entry: stale %d, computed %d; want 1 and 1", r2.cache.Stale(), r2.RunsComputed())
			}
			r3 := cacheDirRunner(t, opt, dir)
			if got := r3.Run(k.App, k.Label); !reflect.DeepEqual(got, want) {
				t.Error("replayed run diverges from the original")
			}
			if r3.cache.Stale() != 0 || r3.RunsComputed() != 0 {
				t.Errorf("tampered entry not overwritten: stale %d, computed %d; want 0 and 0",
					r3.cache.Stale(), r3.RunsComputed())
			}
		})
	}
}

// FuzzCacheEntry writes arbitrary bytes at a run entry's path. load
// must never panic, and it may report a hit only for an envelope for
// that key at the current version whose payload matches its checksum
// and decodes to the served Results, which pass Check. With wrap set
// the bytes become the payload of an otherwise valid envelope with a
// correct checksum, so the fuzzer also reaches the payload decoder
// and Check, which the checksum would otherwise shield.
func FuzzCacheEntry(f *testing.F) {
	opt := Options{Scale: workload.ScaleTiny, Seed: 1}
	k := RunKey{App: "Mcf", Label: CfgRepl}
	valid := core.Results{
		App: k.App, Label: k.Label, Cycles: 100,
		Exec:       stats.ExecBreakdown{Busy: 60, UpToL2: 30, BeyondL2: 10},
		PushesToL2: 2, Outcomes: stats.PrefetchOutcomes{Hits: 1, Redundant: 1},
	}
	seed, err := OpenCache(f.TempDir(), opt)
	if err != nil {
		f.Fatal(err)
	}
	seed.SaveRun(k, valid)
	if _, ok := seed.LoadRun(k); !ok {
		f.Fatal("a valid entry is not served")
	}
	entry, err := os.ReadFile(seed.path(runRef(k)))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry, false)
	f.Add(entry[:len(entry)/2], false)
	f.Add(bytes.Replace(entry, []byte(`"Cycles":100`), []byte(`"Cycles":50`), 1), false)
	f.Add([]byte("{not json"), false)
	f.Add(payload, true)
	f.Add([]byte(`{"Cycles":5}`), true)
	f.Add([]byte(`{"MissDistance":{"Edges":[1],"Counts":[]}}`), true)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, b []byte, wrap bool) {
		c, err := OpenCache(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			b = []byte(fmt.Sprintf(`{"key":%q,"version":%d,"kind":%q,"app":%q,"label":%q,"sum":%q,"payload":%s}`,
				c.fullKey(runRef(k)), cacheVersion, cacheKindRun, k.App, k.Label, payloadSum(b), b))
		}
		if err := os.WriteFile(c.path(runRef(k)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.LoadRun(k)
		if !ok {
			if c.Stale() != 1 || c.Hits() != 0 {
				t.Fatalf("rejected entry counted stale %d, hits %d; want 1 and 0", c.Stale(), c.Hits())
			}
			return
		}
		var env cacheEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("hit on bytes that are not an envelope: %v", err)
		}
		if env.Key != c.fullKey(runRef(k)) || env.Version != cacheVersion {
			t.Fatalf("hit on an entry for another key or version: %q v%d", env.Key, env.Version)
		}
		if env.Sum != payloadSum(env.Payload) {
			t.Fatal("hit on a payload that does not match its checksum")
		}
		var want core.Results
		if err := json.Unmarshal(env.Payload, &want); err != nil {
			t.Fatalf("hit on a payload that is not Results: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("served Results differ from the payload:\n got %+v\nwant %+v", got, want)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("served Results fail Check: %v", err)
		}
	})
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
