package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"ulmt/internal/core"
)

// Persistent content-addressed run cache.
//
// Every ulmtsim invocation used to re-simulate its entire run matrix
// from scratch; with a Cache attached, a completed run's Results are
// written once under a content-derived name and every later
// invocation that asks for the same work replays it from disk. The
// cache is the only store of completed results and the only thing
// that carries work across an interrupt: each completed run is
// fsynced here before its worker takes the next key, so rerunning an
// interrupted invocation over the same directory replays every
// finished run and starts over only the runs that were in flight (at
// most one per worker). One directory serves any mix of scales,
// seeds, fault plans and app subsets, because the identity of each
// entry is a digest of everything that could change its bytes:
//
//   - the canonical RunKey encoding (length-prefixed, so no two
//     distinct (app, label) or (kind, name) pairs can collide — see
//     FuzzCacheKey),
//   - the Options behavior fingerprint (scale, seed, fault plan),
//   - CacheBehaviorVersion, a code-behavior constant bumped whenever a
//     change legitimately moves report_sha256; entries from an older
//     code generation are detected as stale and recomputed, never
//     served.
//
// Besides matrix Results, the cache holds the derived artifacts that
// dominate a warm run's residual cost: the per-app Table 2 sizing
// (which needs the full functional miss trace) and the per-app Fig 5
// prediction rows (seven predictors over that trace). With those
// cached, a warm `-exp all` renders without generating a single op
// stream.
//
// Results round-trip exactly: every field of core.Results is either
// an integer, a float64 (Go's JSON encoder emits the shortest
// representation that parses back to the same bit pattern), or the
// Histogram with its own exact codec, so a replayed run renders
// byte-identical reports (TestCacheRunRoundTrip).
//
// Entries are written atomically and durably (tmp, fsync, rename) and
// are self-describing (the envelope records the full key material and
// a SHA-256 of its payload). A corrupt, truncated or mismatched entry,
// one whose payload no longer matches its checksum, and a run entry
// whose Results fail core.Results.Check all count as stale and are
// recomputed and overwritten. A run without a cache directory is the
// oracle: it simulates everything, checks every run the same way, and
// must render byte-identical reports (TestCacheWarmEquivalence).

// CacheBehaviorVersion is the code-behavior generation of cache
// entries. Bump it in the same commit as any change that legitimately
// alters report_sha256 (a simulated-behavior change, a Results field
// change, a derived-artifact format change): every existing cache
// entry then reads as stale and is recomputed. Version 2 added the
// envelope's payload checksum.
const CacheBehaviorVersion = 2

// cacheVersion is the behavior version actually consulted; it exists
// as a variable only so the stale-cache test can simulate a version
// bump without editing the constant. Everywhere else it equals
// CacheBehaviorVersion.
var cacheVersion uint64 = CacheBehaviorVersion

// fingerprint is the Options half of every cache key: the options
// that change simulated behavior. Its text is part of every existing
// entry's address, so it must not change without a version bump
// (TestCacheAddressPinned); the literals "kernel=0" and
// "fastpath=true" are part of that text.
func (o Options) fingerprint() [32]byte {
	// A fault.Plan is a pure function of its Config, seed included, so
	// the Config identifies the plan; no plan leaves the text empty.
	faults := ""
	if o.Faults != nil {
		faults = fmt.Sprintf("%+v", o.Faults.Config())
	}
	return sha256.Sum256([]byte(fmt.Sprintf(
		"ulmt-run/v1|scale=%s|seed=%d|kernel=0|fastpath=true|faults=%s",
		o.Scale.String(), o.Seed, faults)))
}

// Artifact kinds stored beside the "run" Results entries.
const (
	cacheKindRun    = "run"
	cacheKindSizing = "sizing"
	cacheKindFig5   = "fig5"
)

// cacheRef names one cache entry before hashing: an entry kind, the
// app it belongs to, and (for run entries) the configuration label.
type cacheRef struct {
	Kind  string
	App   string
	Label string
}

// encodeCacheKey renders a cacheRef and fingerprint into the
// canonical byte string that is hashed into the entry's address.
// Every field is uvarint-length-prefixed, so the encoding is
// injective: distinct inputs can never produce the same bytes
// (FuzzCacheKey pins this, along with decodeCacheKey round-tripping).
func encodeCacheKey(ref cacheRef, fp [32]byte, version uint64) []byte {
	buf := make([]byte, 0, 64+len(ref.Kind)+len(ref.App)+len(ref.Label))
	put := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	put("ulmt-cache")
	buf = binary.AppendUvarint(buf, version)
	put(ref.Kind)
	put(ref.App)
	put(ref.Label)
	buf = append(buf, fp[:]...)
	return buf
}

// decodeCacheKey inverts encodeCacheKey, reporting an error on any
// malformed input. It exists so the canonical encoding is proven
// lossless (round-trip property of FuzzCacheKey), which is what makes
// "distinct keys never collide" more than an assumption about sha256.
func decodeCacheKey(b []byte) (ref cacheRef, fp [32]byte, version uint64, err error) {
	take := func() (string, error) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return "", errors.New("experiment: truncated cache key")
		}
		s := string(b[sz : sz+int(n)])
		b = b[sz+int(n):]
		return s, nil
	}
	magic, err := take()
	if err != nil {
		return ref, fp, 0, err
	}
	if magic != "ulmt-cache" {
		return ref, fp, 0, errors.New("experiment: not a cache key")
	}
	v, sz := binary.Uvarint(b)
	if sz <= 0 {
		return ref, fp, 0, errors.New("experiment: truncated cache key")
	}
	b = b[sz:]
	version = v
	if ref.Kind, err = take(); err != nil {
		return ref, fp, 0, err
	}
	if ref.App, err = take(); err != nil {
		return ref, fp, 0, err
	}
	if ref.Label, err = take(); err != nil {
		return ref, fp, 0, err
	}
	if len(b) != len(fp) {
		return ref, fp, 0, errors.New("experiment: bad cache key fingerprint")
	}
	copy(fp[:], b)
	return ref, fp, version, nil
}

// Cache is a persistent content-addressed result cache rooted at a
// directory. All methods are safe for concurrent use by ExecuteAll's
// workers. The zero of every counter is "cache never consulted".
type Cache struct {
	dir string
	fp  [32]byte

	hits   atomic.Uint64
	misses atomic.Uint64
	stale  atomic.Uint64
}

// OpenCache creates (or re-opens) a cache directory. There is no
// manifest to agree with: entries are content-addressed, so one
// directory serves every invocation shape.
func OpenCache(dir string, opt Options) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		return nil, fmt.Errorf("experiment: cache dir: %w", err)
	}
	return &Cache{dir: dir, fp: opt.fingerprint()}, nil
}

// Hits, Misses and Stale report the lookup counters: entries served,
// entries absent, and entries found but unusable (older behavior
// version, corrupt file, foreign key material, payload checksum
// mismatch, or Results that fail their Check). A stale lookup
// also counts as a miss, so hits+misses always equals total lookups.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }
func (c *Cache) Stale() uint64  { return c.stale.Load() }

// cacheEnvelope is the on-disk entry shape. Key is the hex of the
// full canonical key (including the behavior version), so a reader
// can verify an entry is exactly what it asked for; Payload is the
// kind-specific JSON (core.Results for runs, the artifact structs
// otherwise), which round-trips exactly (integers, shortest-form
// float64s, and the Histogram's own codec); Sum is the hex SHA-256 of
// the Payload bytes.
type cacheEnvelope struct {
	Key     string          `json:"key"`
	Version uint64          `json:"version"`
	Kind    string          `json:"kind"`
	App     string          `json:"app"`
	Label   string          `json:"label,omitempty"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// payloadSum is the checksum an envelope records for its payload.
func payloadSum(payload []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(payload))
}

// entryAddr addresses an entry: it hashes the ref and the
// fingerprint but NOT the behavior version, so bumping
// CacheBehaviorVersion makes old entries show up as stale (countable,
// reclaimable, overwritten in place) instead of orphaned files that
// accumulate forever. The version still participates in entryKey,
// the full identity the load path verifies.
func entryAddr(ref cacheRef, fp [32]byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(encodeCacheKey(ref, fp, 0)))
}

// entryKey is the entry identity recorded in (and demanded of) the
// envelope: the canonical encoding including the behavior version.
func entryKey(ref cacheRef, fp [32]byte) [32]byte {
	return sha256.Sum256(encodeCacheKey(ref, fp, cacheVersion))
}

func (c *Cache) path(ref cacheRef) string {
	return filepath.Join(c.dir, "cache", entryAddr(ref, c.fp)+".json")
}

func (c *Cache) fullKey(ref cacheRef) string {
	return fmt.Sprintf("%x", entryKey(ref, c.fp))
}

// load fetches an entry's payload. ok reports a usable hit; anything
// else — absent, unreadable, corrupt, stale version, foreign key,
// checksum mismatch, failed Check — is a miss (with the stale counter
// distinguishing "found but unusable" from "absent").
func (c *Cache) load(ref cacheRef, into any) (ok bool) {
	b, err := os.ReadFile(c.path(ref))
	if errors.Is(err, os.ErrNotExist) {
		c.misses.Add(1)
		return false
	}
	if err != nil || !c.decode(ref, b, into) {
		c.stale.Add(1)
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// decode reports whether b is a usable entry for ref, unpacking its
// payload into into. A payload that checks itself (core.Results) must
// also pass its Check, the same one every simulated run passes.
func (c *Cache) decode(ref cacheRef, b []byte, into any) bool {
	var env cacheEnvelope
	if json.Unmarshal(b, &env) != nil || env.Version != cacheVersion ||
		env.Key != c.fullKey(ref) || env.Sum != payloadSum(env.Payload) ||
		json.Unmarshal(env.Payload, into) != nil {
		return false
	}
	v, ok := into.(interface{ Check() error })
	return !ok || v.Check() == nil
}

// save persists an entry atomically and durably (tmp, fsync, rename:
// never a truncated file a later invocation would trust, and the
// cache holds the only copy of a completed run). Save failures are
// returned for logging but never fail the run: a cache that cannot
// write is just a cache that stays cold.
func (c *Cache) save(ref cacheRef, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	env := cacheEnvelope{
		Key:     c.fullKey(ref),
		Version: cacheVersion,
		Kind:    ref.Kind,
		App:     ref.App,
		Label:   ref.Label,
		Sum:     payloadSum(raw),
		Payload: raw,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	path := c.path(ref)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-cache-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// runRef addresses a matrix run's Results entry.
func runRef(k RunKey) cacheRef { return cacheRef{Kind: cacheKindRun, App: k.App, Label: k.Label} }

// LoadRun fetches a cached simulation result.
func (c *Cache) LoadRun(k RunKey) (core.Results, bool) {
	var res core.Results
	if !c.load(runRef(k), &res) {
		return core.Results{}, false
	}
	return res, true
}

// SaveRun persists a completed simulation result.
func (c *Cache) SaveRun(k RunKey, res core.Results) {
	if err := c.save(runRef(k), res); err != nil {
		fmt.Fprintf(os.Stderr, "ulmtsim: caching %s/%s: %v\n", k.App, k.Label, err)
	}
}

// sizingArtifact is the cached Table 2 derivation for one app: the
// functional L2 miss count and the <5%-replacement row sizing. With
// it cached, a warm run renders Table 2 without extracting the miss
// trace at all.
type sizingArtifact struct {
	Misses int     `json:"misses"`
	Rows   int     `json:"rows"`
	Rate   float64 `json:"rate"`
}

// fig5Artifact is the cached Fig 5 row for one app: each algorithm's
// per-level prediction accuracy. float64s round-trip exactly through
// JSON (shortest-form encoding), so a warm render is byte-identical.
type fig5Artifact struct {
	Acc map[string][]float64 `json:"acc"`
}

func (c *Cache) loadSizing(app string) (sizingArtifact, bool) {
	var s sizingArtifact
	ok := c.load(cacheRef{Kind: cacheKindSizing, App: app}, &s)
	return s, ok
}

func (c *Cache) saveSizing(app string, s sizingArtifact) {
	if err := c.save(cacheRef{Kind: cacheKindSizing, App: app}, s); err != nil {
		fmt.Fprintf(os.Stderr, "ulmtsim: caching sizing/%s: %v\n", app, err)
	}
}

func (c *Cache) loadFig5(app string) (fig5Artifact, bool) {
	var f fig5Artifact
	ok := c.load(cacheRef{Kind: cacheKindFig5, App: app}, &f)
	return f, ok
}

func (c *Cache) saveFig5(app string, f fig5Artifact) {
	if err := c.save(cacheRef{Kind: cacheKindFig5, App: app}, f); err != nil {
		fmt.Fprintf(os.Stderr, "ulmtsim: caching fig5/%s: %v\n", app, err)
	}
}
