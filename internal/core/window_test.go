package core

import (
	"reflect"
	"testing"

	"ulmt/internal/fault"
	"ulmt/internal/mem"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// Differential suite for the windowed (intra-run parallel) execution
// mode. An N >= 2 MultiSystem always runs the windowed canonical
// schedule; IntraJ picks how many goroutines advance it and WindowCap
// how finely windows are sliced. Neither may change a single byte of
// the results — these tests pin that, and the fuzz target sweeps the
// machine shape space under -race.

// privateConfig builds an n-core machine with private per-core Repl
// tables (Shards == 0), bases strided like the experiment layer does.
func privateConfig(streams [][]workload.Op) MulticoreConfig {
	base := DefaultConfig()
	base.Seed = 23
	mc := MulticoreConfig{Base: base}
	for i, ops := range streams {
		mc.Apps = append(mc.Apps, CoreApp{
			Name: "app",
			Ops:  ops,
			ULMT: newReplAt(TableBase + mem.Addr(uint64(i))<<40),
		})
	}
	return mc
}

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

// TestWindowEquivalence pins byte identity of the full MulticoreResults
// (per-core Results including CacheFP and Outcomes, FinishAt, bus and
// ULMT aggregates, EventsFired) across intra-run worker counts and
// window caps, for private and sharded prefetchers, with and without
// a fault plan.
func TestWindowEquivalence(t *testing.T) {
	streams := [][]workload.Op{
		randomOps([]byte("window equivalence stream a")),
		randomOps([]byte("window equivalence stream b")),
		randomOps([]byte("window equivalence stream c")),
	}
	cases := []struct {
		name    string
		mk      func() MulticoreConfig
		faulted bool
	}{
		{name: "sharded", mk: func() MulticoreConfig { return shardedConfig(streams, 2, false) }},
		{name: "private", mk: func() MulticoreConfig { return privateConfig(streams) }},
		{name: "sharded-faults", mk: func() MulticoreConfig {
			mc := shardedConfig(streams, 2, false)
			mc.Base.Faults = fault.Light(7)
			return mc
		}, faulted: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := runMC(t, tc.mk())
			variants := []struct {
				name  string
				intra int
				cap   sim.Cycle
			}{
				{"intra3", 3, 0},
				{"intra0-gomaxprocs", 0, 0},
				{"intra2-cap64", 2, 64},
				{"intra1-cap1", 1, 1},
			}
			for _, v := range variants {
				mc := tc.mk()
				if tc.faulted {
					// Fault plans carry mutable injection state; each
					// machine needs its own (identically seeded) plan.
					mc.Base.Faults = fault.Light(7)
				}
				mc.IntraJ = v.intra
				mc.WindowCap = v.cap
				got := runMC(t, mc)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s diverges from intra-j 1:\n got %+v\nwant %+v", v.name, got, want)
				}
			}
		})
	}
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

// FuzzWindowEquivalence sweeps machine shape (core count, shard
// count, prefetcher layout), window cap, and worker count from fuzz
// data, asserting the windowed schedule's results are byte-identical
// to the intra-j 1, uncapped reference. Run under -race this also
// hunts for stretch/shared-state conflicts.
func FuzzWindowEquivalence(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 100, 101})
	f.Add([]byte{3, 0, 4, 16, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 2, 2, 1, 255, 0, 127, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		ncores := 2 + int(data[0])%3 // 2..4
		nshards := int(data[1]) % 4  // 0 = private tables
		intra := 2 + int(data[2])%3  // 2..4 workers
		wcap := sim.Cycle(data[3]) * 8
		body := data[4:]
		if len(body) > 1200 {
			body = body[:1200]
		}
		var streams [][]workload.Op
		for i := 0; i < ncores; i++ {
			streams = append(streams, randomOps(append([]byte{byte(i)}, body...)))
		}
		mk := func() MulticoreConfig {
			if nshards == 0 {
				return privateConfig(streams)
			}
			return shardedConfig(streams, nshards, false)
		}
		want := runMC(t, mk())
		mc := mk()
		mc.IntraJ = intra
		mc.WindowCap = wcap
		got := runMC(t, mc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("windowed run (intra-j %d, cap %d) diverges from reference", intra, wcap)
		}
	})
}
