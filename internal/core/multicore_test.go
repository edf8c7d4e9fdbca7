package core

import (
	"fmt"
	"reflect"
	"testing"

	"ulmt/internal/mem"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// newReplAt builds a fresh Repl ULMT with its table at base.
func newReplAt(base mem.Addr) prefetch.Algorithm {
	return prefetch.NewRepl(table.NewRepl(table.ReplParams(1<<12), base))
}

// TestMulticoreN1MatchesSingleCore is the differential oracle for the
// multi-core machinery: a 1-core MultiSystem must be the single-core
// System event for event — every Results field byte-identical,
// including cycle counts, outcome breakdowns, the terminal cache
// fingerprint, and even the engine event count — across all nine
// kernels.
func TestMulticoreN1MatchesSingleCore(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ops := w.Generate(workload.ScaleTiny)

			mk := func() Config {
				cfg := DefaultConfig()
				cfg.Seed = 11
				return cfg
			}

			legacy := mk()
			legacy.ULMT = newReplAt(TableBase)
			want := mustSystem(legacy).Run(name, ops)

			mc := MulticoreConfig{
				Base: mk(),
				Apps: []CoreApp{{Name: name, Ops: ops, ULMT: newReplAt(TableBase)}},
			}
			ms, err := NewMultiSystem(mc)
			if err != nil {
				t.Fatal(err)
			}
			res := ms.Run()
			if len(res.Cores) != 1 {
				t.Fatalf("got %d core results", len(res.Cores))
			}
			if !reflect.DeepEqual(res.Cores[0], want) {
				t.Fatalf("1-core MultiSystem diverges from single-core System:\n got %+v\nwant %+v", res.Cores[0], want)
			}
			if res.TotalCycles != want.Cycles {
				t.Fatalf("total cycles %d, single-core %d", res.TotalCycles, want.Cycles)
			}
		})
	}
}

// shardedConfig builds an n-core S-shard machine over the given op
// streams. DropPushes cuts the deposit->queue-3->bus feedback loop so
// the machine's visible behavior is provably independent of shard
// count (see the trace test below).
func shardedConfig(streams [][]workload.Op, shards int, dropPushes bool) MulticoreConfig {
	base := DefaultConfig()
	base.Seed = 23
	base.DropPushes = dropPushes
	mc := MulticoreConfig{
		Base:       base,
		Shards:     shards,
		SharedULMT: newReplAt(TableBase),
	}
	for i, ops := range streams {
		mc.Apps = append(mc.Apps, CoreApp{Name: fmt.Sprintf("app%d", i), Ops: ops})
	}
	return mc
}

type emitRec struct {
	core int
	line mem.Line
}

// runShardedTrace runs a sharded machine recording every line the
// shared algorithm emits, in delivery order.
func runShardedTrace(t *testing.T, mc MulticoreConfig) ([]emitRec, MulticoreResults) {
	t.Helper()
	ms, err := NewMultiSystem(mc)
	if err != nil {
		t.Fatal(err)
	}
	var trace []emitRec
	ms.shards.onEmit = func(core, _ int, l mem.Line) {
		trace = append(trace, emitRec{core: core, line: l})
	}
	res := ms.Run()
	if !ms.Quiesced() {
		t.Fatal("machine did not quiesce")
	}
	return trace, res
}

// TestShardCountInvariantPrefetchStream pins the re-sharding
// invariant: the shard count decides where table rows live and how
// long sessions queue, never WHICH prefetches the shared algorithm
// generates. With the deposit feedback path cut (DropPushes), a
// 1-shard and a 4-shard machine over the same randomized op mixes
// must emit the identical prefetch stream — same lines, same cores,
// same order — and agree on every machine-visible outcome.
func TestShardCountInvariantPrefetchStream(t *testing.T) {
	// Loop each random stream so the second and third passes miss on
	// addresses the table learned during the first — otherwise a
	// one-shot random stream never repeats a miss pair and the
	// algorithm has nothing to predict.
	looped := func(seed []byte) []workload.Op {
		ops := randomOps(seed)
		out := make([]workload.Op, 0, 3*len(ops))
		for i := 0; i < 3; i++ {
			out = append(out, ops...)
		}
		return out
	}
	for _, seed := range []string{
		"shard invariance mix alpha: pointer chases with stores",
		"shard invariance mix beta, a different arbitrary stream",
	} {
		streams := [][]workload.Op{
			looped([]byte(seed + " core0")),
			looped([]byte(seed + " core1")),
		}
		// Shrink the caches so the looped streams re-miss on lines
		// the table already learned; at the Table 3 sizes the whole
		// random working set fits in L2 and later passes never miss.
		mk := func(shards int) MulticoreConfig {
			mc := shardedConfig(streams, shards, true)
			mc.Base.L1.SizeBytes = 1 << 10
			mc.Base.L2.SizeBytes = 4 << 10
			return mc
		}
		t1, r1 := runShardedTrace(t, mk(1))
		t4, r4 := runShardedTrace(t, mk(4))

		if len(t1) == 0 {
			t.Fatalf("seed %q: no prefetches emitted; vacuous test", seed)
		}
		if !reflect.DeepEqual(t1, t4) {
			n := len(t1)
			if len(t4) < n {
				n = len(t4)
			}
			for i := 0; i < n; i++ {
				if t1[i] != t4[i] {
					t.Fatalf("seed %q: emit %d diverges: 1-shard %+v, 4-shard %+v", seed, i, t1[i], t4[i])
				}
			}
			t.Fatalf("seed %q: emit stream lengths diverge: %d vs %d", seed, len(t1), len(t4))
		}
		// TotalCycles includes the ULMT drain tail, which legitimately
		// depends on shard count (one shard serializes sessions); the
		// applications' own completion times must not.
		if !reflect.DeepEqual(r1.FinishAt, r4.FinishAt) {
			t.Fatalf("seed %q: core finish times diverge: %v vs %v", seed, r1.FinishAt, r4.FinishAt)
		}
		for c := range r1.Cores {
			a, b := r1.Cores[c], r4.Cores[c]
			if a.CacheFP != b.CacheFP {
				t.Fatalf("seed %q core %d: cache fingerprints diverge", seed, c)
			}
			if a.DemandMissesToMemory != b.DemandMissesToMemory {
				t.Fatalf("seed %q core %d: demand misses diverge: %d vs %d",
					seed, c, a.DemandMissesToMemory, b.DemandMissesToMemory)
			}
			if a.Outcomes != b.Outcomes {
				t.Fatalf("seed %q core %d: outcomes diverge", seed, c)
			}
		}
	}
}

// TestMulticoreConservation checks the machine-wide conservation
// identities on randomized multiprogrammed mixes at 2 and 4 cores:
//
//   - every core retires its whole stream and its execution breakdown
//     tiles the run;
//   - with no prefetching, every demand miss is serviced exactly once
//     by memory (demand misses == full-latency misses per core) and
//     crosses the shared bus exactly twice (request + reply), so
//     per-core miss counts sum to the bus's demand transfer count;
//   - with the sharded ULMT, a demand miss is serviced exactly once
//     by either the DRAM or an in-flight push (misses == full misses
//   - delayed hits per core);
//   - identical runs are bit-identical.
func TestMulticoreConservation(t *testing.T) {
	mkStreams := func(n int, tag string) [][]workload.Op {
		var out [][]workload.Op
		for i := 0; i < n; i++ {
			out = append(out, randomOps([]byte(fmt.Sprintf("conservation %s core %d", tag, i))))
		}
		return out
	}

	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("NoPref-%dcore", n), func(t *testing.T) {
			t.Parallel()
			streams := mkStreams(n, "nopref")
			base := DefaultConfig()
			base.Seed = 5
			mc := MulticoreConfig{Base: base}
			for i, ops := range streams {
				mc.Apps = append(mc.Apps, CoreApp{Name: fmt.Sprintf("app%d", i), Ops: ops})
			}
			ms, err := NewMultiSystem(mc)
			if err != nil {
				t.Fatal(err)
			}
			res := ms.Run()
			if !ms.Quiesced() {
				t.Fatal("machine did not quiesce")
			}
			var sum uint64
			for i, r := range res.Cores {
				if r.OpsRetired != uint64(len(streams[i])) {
					t.Errorf("core %d retired %d of %d ops", i, r.OpsRetired, len(streams[i]))
				}
				if r.Exec.Total() != r.Cycles {
					t.Errorf("core %d breakdown %d != cycles %d", i, r.Exec.Total(), r.Cycles)
				}
				if r.DemandMissesToMemory != r.Outcomes.NonPrefMisses {
					t.Errorf("core %d: %d demand misses but %d serviced",
						i, r.DemandMissesToMemory, r.Outcomes.NonPrefMisses)
				}
				sum += r.DemandMissesToMemory
			}
			if res.BusTransfers.Demand != 2*sum {
				t.Errorf("bus demand transfers %d, want 2x%d misses", res.BusTransfers.Demand, sum)
			}
			if res.BusTransfers.Prefetch != 0 {
				t.Errorf("prefetch transfers %d on a NoPref machine", res.BusTransfers.Prefetch)
			}

			again, err := NewMultiSystem(mc)
			if err != nil {
				t.Fatal(err)
			}
			res2 := again.Run()
			if !reflect.DeepEqual(res, res2) {
				t.Error("identical NoPref runs diverge")
			}
		})

		t.Run(fmt.Sprintf("Sharded-%dcore", n), func(t *testing.T) {
			t.Parallel()
			streams := mkStreams(n, "sharded")
			mc := shardedConfig(streams, 2, false)
			ms, err := NewMultiSystem(mc)
			if err != nil {
				t.Fatal(err)
			}
			res := ms.Run()
			if !ms.Quiesced() {
				t.Fatal("machine did not quiesce")
			}
			for i, r := range res.Cores {
				if r.OpsRetired != uint64(len(streams[i])) {
					t.Errorf("core %d retired %d of %d ops", i, r.OpsRetired, len(streams[i]))
				}
				if r.Exec.Total() != r.Cycles {
					t.Errorf("core %d breakdown %d != cycles %d", i, r.Exec.Total(), r.Cycles)
				}
				if r.DemandMissesToMemory != r.Outcomes.NonPrefMisses+r.Outcomes.DelayedHits {
					t.Errorf("core %d: %d demand misses, %d full + %d delayed",
						i, r.DemandMissesToMemory, r.Outcomes.NonPrefMisses, r.Outcomes.DelayedHits)
				}
			}
			if res.ULMT.MissesProcessed == 0 {
				t.Error("sharded ULMT processed no observations; vacuous run")
			}

			again, err := NewMultiSystem(shardedConfig(streams, 2, false))
			if err != nil {
				t.Fatal(err)
			}
			res2 := again.Run()
			if !reflect.DeepEqual(res, res2) {
				t.Error("identical sharded runs diverge")
			}
		})
	}
}

// TestMulticoreBusNoOverlap drives a 4-core machine with the
// duration hook doubling as a grant observer and asserts the shared
// medium never carries two transfers at once.
func TestMulticoreBusNoOverlap(t *testing.T) {
	streams := [][]workload.Op{
		randomOps([]byte("bus overlap core a")),
		randomOps([]byte("bus overlap core b")),
		randomOps([]byte("bus overlap core c")),
		randomOps([]byte("bus overlap core d")),
	}
	mc := shardedConfig(streams, 2, false)
	ms, err := NewMultiSystem(mc)
	if err != nil {
		t.Fatal(err)
	}
	var prevDone sim.Cycle
	grants := 0
	ms.fsb.SetStretch(func(now, dur sim.Cycle) sim.Cycle {
		if now < prevDone {
			t.Fatalf("transfer granted at %d overlaps one busy until %d", now, prevDone)
		}
		prevDone = now + dur
		grants++
		return dur
	})
	res := ms.Run()
	if uint64(grants) != res.BusTransfers.Total() {
		t.Fatalf("observed %d grants, counters say %d", grants, res.BusTransfers.Total())
	}
	if grants == 0 {
		t.Fatal("no bus transfers; vacuous test")
	}
}

// FuzzShardDelivery feeds arbitrary machine shapes and op mixes to
// the sharded machine and checks the delivery contract: every
// observation a core stages is delivered to the shard set exactly
// once, in staging order — never dropped, duplicated, or reordered.
func FuzzShardDelivery(f *testing.F) {
	// Seed corpus: a slice of the pointer-chase kernel's address
	// stream, plus hand-picked mixes.
	if w, err := workload.ByName("Chase"); err == nil {
		var seed []byte
		for _, op := range w.Generate(workload.ScaleTiny) {
			seed = append(seed, byte(op.Kind), byte(op.Addr>>5))
			if len(seed) >= 512 {
				break
			}
		}
		f.Add(seed)
	}
	f.Add([]byte("interleaved loads and stores across four shards"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ncores := 1 + int(data[0])%3
		nshards := 1 + int(data[1])%4
		body := data[2:]
		if len(body) > 1500 {
			body = body[:1500]
		}
		var streams [][]workload.Op
		for i := 0; i < ncores; i++ {
			streams = append(streams, randomOps(append([]byte{byte(i)}, body...)))
		}
		mc := shardedConfig(streams, nshards, false)
		ms, err := NewMultiSystem(mc)
		if err != nil {
			t.Fatal(err)
		}
		staged := make([][]mem.Line, ncores)
		delivered := make([][]mem.Line, ncores)
		ms.shards.onStage = func(core int, l mem.Line) { staged[core] = append(staged[core], l) }
		ms.shards.onDeliver = func(core int, l mem.Line) { delivered[core] = append(delivered[core], l) }
		ms.Run()
		if !ms.Quiesced() {
			t.Fatal("machine did not quiesce")
		}
		for c := 0; c < ncores; c++ {
			if !reflect.DeepEqual(staged[c], delivered[c]) {
				t.Fatalf("core %d: staged %d observations, delivered %d, or order diverged",
					c, len(staged[c]), len(delivered[c]))
			}
		}
	})
}

// TestZeroAllocMulticoreHitPath extends the allocation gate to the
// replicated per-core hot path: a steady-state L1 hit on any core of
// a 2-core sharded machine must not touch the heap.
func TestZeroAllocMulticoreHitPath(t *testing.T) {
	mc := shardedConfig([][]workload.Op{
		randomOps([]byte("alloc gate a")),
		randomOps([]byte("alloc gate b")),
	}, 2, false)
	ms, err := NewMultiSystem(mc)
	if err != nil {
		t.Fatal(err)
	}
	eng := ms.eng
	done := &countCompleter{}
	hit := func(core int, i uint64) {
		ms.cores[core].Load(mem.Addr(uint64(core)<<40)+mem.Addr((i%8)*64), i, done)
		for eng.Pending() > 0 {
			eng.Step()
		}
	}
	for i := uint64(0); i < 8192; i++ {
		hit(0, i)
		hit(1, i)
	}
	avg := testing.AllocsPerRun(200, func() {
		hit(0, 1<<20)
		hit(1, 1<<20)
	})
	if avg != 0 {
		t.Fatalf("multicore L1 hit path allocates %.2f allocs/op, want 0", avg)
	}
	if done.n == 0 {
		t.Fatal("no completions delivered")
	}
}

// runMC builds and runs a multicore machine, failing the test on a
// configuration error or a machine that does not drain.
func runMC(t *testing.T, mc MulticoreConfig) MulticoreResults {
	t.Helper()
	ms, err := NewMultiSystem(mc)
	if err != nil {
		t.Fatal(err)
	}
	res := ms.Run()
	if !ms.Quiesced() {
		t.Fatal("machine did not quiesce")
	}
	return res
}

// TestShardAttribConservation sanity-checks the cross-core
// attribution counters on a correlated mix (Mcf repeats its miss
// stream, so the table learns and emits): emits are attributed, the
// identical per-core streams alias into the same table sets so
// cross-core takeovers show up, and a single-core sharded machine can
// never record cross traffic.
func TestShardAttribConservation(t *testing.T) {
	w, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	ops := w.Generate(workload.ScaleTiny)
	streams := [][]workload.Op{ops, ops}
	res := runMC(t, shardedConfig(streams, 2, false))
	if res.ShardAttrib == nil {
		t.Fatal("sharded machine reported no attribution")
	}
	var local, cross, takeovers uint64
	for _, a := range res.ShardAttrib {
		local += a.LocalEmits
		cross += a.CrossEmits
		takeovers += a.RowTakeovers
	}
	if local+cross == 0 {
		t.Fatal("no emits attributed at all")
	}
	if takeovers == 0 {
		t.Fatal("identical per-core streams alias into the same sets; expected takeovers")
	}

	solo := runMC(t, shardedConfig(streams[:1], 2, false))
	for _, a := range solo.ShardAttrib {
		if a.CrossEmits != 0 || a.RowTakeovers != 0 {
			t.Fatalf("single-core machine recorded cross-core traffic: %+v", a)
		}
	}
}

// TestShardStagingOverflow gives a two-core sharded machine a queue
// depth of one, so a miss can reach a core's staging buffer before the
// delivery round drains the previous one; the overflowing observation
// is dropped against its shard (shardSet.dropObservation). Every op
// must still retire, each core's results must pass their checks, and
// the machine must drain.
func TestShardStagingOverflow(t *testing.T) {
	streams := [][]workload.Op{seqOps(8192, 1), seqOps(8192, 1)}
	mc := shardedConfig(streams, 2, false)
	mc.Base.QueueDepth = 1
	res := runMC(t, mc)
	for i, r := range res.Cores {
		if r.OpsRetired != uint64(len(streams[i])) {
			t.Errorf("core %d retired %d of %d ops", i, r.OpsRetired, len(streams[i]))
		}
		if err := r.Check(); err != nil {
			t.Errorf("core %d: %v", i, err)
		}
	}
	if res.ULMT.MissesDropped == 0 {
		t.Error("no observation overflowed a staging buffer")
	}
}
