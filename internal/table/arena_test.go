package table

import (
	"sync"
	"testing"
)

// withArenaBudget caps the pool for one test, restoring the empty,
// uncapped pool afterwards.
func withArenaBudget(t *testing.T, capBytes int64) {
	t.Helper()
	FlushArenaPool()
	SetArenaBudget(capBytes)
	t.Cleanup(func() {
		FlushArenaPool()
		SetArenaBudget(0)
	})
}

// parkedBytes sums the arenas actually parked, independently of the
// pool's running count.
func parkedBytes() int64 {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	var b int64
	for n, frees := range arenaPool.byLen {
		b += int64(n*len(frees)) * lineBytes
	}
	return b
}

// TestArenaPoolBounded is the peak-heap regression gate: the cap
// bounds only RETAINED bytes (live arenas are free), the pool must
// never retain more than the cap, must evict its largest arenas first
// when squeezed (only as many as the shortfall needs), must drop an
// arena it cannot hold, and must shrink to a lowered cap. Without
// this bound the experiment matrix's retained arenas tripled peak
// heap (BENCH_ulmt.json, 2026-08-09 entry).
func TestArenaPoolBounded(t *testing.T) {
	const word = int64(8)
	withArenaBudget(t, 100*word)

	small := newArena(20)
	big := newArena(60)
	if got := PooledArenaBytes(); got != 0 {
		t.Fatalf("live arenas counted as %d pooled bytes, want 0 (the cap bounds retention only)", got)
	}

	// Recycling both fits: 80 words pooled <= 100.
	putArena(small)
	putArena(big)
	if got := PooledArenaBytes(); got != 80*word {
		t.Fatalf("pooled = %d bytes, want %d", got, 80*word)
	}

	// Parking 50 more words (80 + 50 = 130 > 100) evicts the LARGEST
	// pooled arena first: the 60-word arena goes, the 20-word one
	// survives, and the incoming 50-word one parks.
	putArena(newArena(50))
	if got := PooledArenaBytes(); got != 70*word {
		t.Fatalf("pooled after squeeze = %d bytes, want %d (largest-first eviction)", got, 70*word)
	}

	// An arena the cap can never hold is dropped, not retained.
	putArena(newArena(120))
	if got := PooledArenaBytes(); got != 70*word {
		t.Fatalf("pooled after unaffordable put = %d bytes, want %d (arena dropped)", got, 70*word)
	}

	// Lowering the cap evicts largest-first down to it.
	SetArenaBudget(60 * word)
	if got := PooledArenaBytes(); got != 20*word {
		t.Fatalf("pooled after lowering the cap = %d bytes, want %d", got, 20*word)
	}

	// Taking a pooled arena live removes it from the count.
	if reused := newArena(20); &reused[0] != &small[0] {
		t.Fatal("the pooled 20-word arena was not reused")
	}
	if got := PooledArenaBytes(); got != 0 {
		t.Fatalf("pooled after reuse = %d bytes, want 0", got)
	}

	putArena(newArena(30))
	FlushArenaPool()
	if got := PooledArenaBytes(); got != 0 {
		t.Fatalf("pooled after flush = %d bytes, want 0", got)
	}
	if got := parkedBytes(); got != 0 {
		t.Fatalf("%d bytes still parked after flush", got)
	}
}

// TestArenaPoolUnbudgeted pins the uncapped pool (cap 0): it retains
// everything and reuses exact-length matches.
func TestArenaPoolUnbudgeted(t *testing.T) {
	withArenaBudget(t, 0)
	a := newArena(1 << 10)
	a[0] = 42
	putArena(a)
	if got := PooledArenaBytes(); got != (1<<10)*8 {
		t.Fatalf("pooled = %d bytes, want %d", got, (1<<10)*8)
	}
	b := newArena(1 << 10)
	if &a[0] != &b[0] {
		t.Fatal("same-length arena must be recycled, not freshly allocated")
	}
	if b[0] != 42 {
		t.Fatal("recycled arenas are reused dirty by contract")
	}
}

// TestArenaPoolConcurrentAccounting takes and parks arenas of mixed
// lengths from several goroutines at once under a cap (run it with
// -race): the pool's running count must equal the bytes actually
// parked and stay within the cap.
func TestArenaPoolConcurrentAccounting(t *testing.T) {
	const capBytes = 1000 * 8
	withArenaBudget(t, capBytes)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				putArena(newArena(16 << ((g + j) % 5)))
			}
		}(g)
	}
	wg.Wait()
	got, parked := PooledArenaBytes(), parkedBytes()
	if got != parked {
		t.Fatalf("pooled count %d bytes, parked %d bytes", got, parked)
	}
	if got > capBytes {
		t.Fatalf("pooled %d bytes over the %d-byte cap", got, capBytes)
	}
}
