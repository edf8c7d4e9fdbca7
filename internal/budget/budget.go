// Package budget provides a shared retained-memory ledger. The
// successor-arena free list in internal/table buys wall-clock speed
// by holding onto hundreds of megabytes between simulations, and
// multicore machines grow per-core mailbox buffers in parallel mode.
// A Ledger gives them one joint allowance: every retained byte is
// reserved against it, reservations that do not fit trigger the
// registered reclaimers (which evict largest-first), and a
// reservation that still does not fit is simply declined — the caller
// falls back to not retaining (a fresh allocation), which is always
// correct, only slower. Mandatory growth (the mailboxes) is recorded
// with MustReserve, which squeezes the optional retention around it.
package budget

import "sync"

// Ledger tracks reserved bytes against a fixed capacity. A nil
// *Ledger is valid and means "unlimited": every Reserve succeeds and
// nothing is tracked, so code paths outside a budgeted run (unit
// tests, library use) behave exactly as before budgets existed.
type Ledger struct {
	mu   sync.Mutex
	cap  int64
	used int64
	peak int64

	// reclaimers are callbacks that release retained bytes on demand:
	// each is asked to free up to `need` bytes (by releasing its own
	// reservations) and returns how many it actually freed. They are
	// invoked without the ledger lock held, so a reclaimer may call
	// Release freely.
	rmu        sync.Mutex
	reclaimers []func(need int64) int64
}

// New returns a ledger with the given byte capacity. A capacity <= 0
// returns nil, the unlimited ledger.
func New(capBytes int64) *Ledger {
	if capBytes <= 0 {
		return nil
	}
	return &Ledger{cap: capBytes}
}

// AddReclaimer registers a callback the ledger may invoke when a
// reservation does not fit. Reclaimers run in registration order.
func (l *Ledger) AddReclaimer(f func(need int64) int64) {
	if l == nil {
		return
	}
	l.rmu.Lock()
	l.reclaimers = append(l.reclaimers, f)
	l.rmu.Unlock()
}

func (l *Ledger) tryReserve(n int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used+n > l.cap {
		return false
	}
	l.used += n
	if l.used > l.peak {
		l.peak = l.used
	}
	return true
}

// Reserve attempts to reserve n bytes, invoking reclaimers if the
// ledger is full. It reports whether the reservation was granted; a
// false return reserves nothing and the caller must degrade (drop the
// buffer) rather than retain.
func (l *Ledger) Reserve(n int64) bool {
	if l == nil || n <= 0 {
		return true
	}
	if n > l.cap {
		// Could never fit even into an empty ledger; decline without
		// asking reclaimers to pointlessly dump what they retain.
		return false
	}
	if l.tryReserve(n) {
		return true
	}
	l.reclaim(n)
	return l.tryReserve(n)
}

// MustReserve reserves n bytes unconditionally: reclaimers are asked
// to make room first, but the reservation is recorded even if the
// ledger overshoots its capacity. It exists for allocations that are
// mandatory (a live table the simulation needs) where the budget's
// job is to squeeze the optional retention around them, not to deny
// the work.
func (l *Ledger) MustReserve(n int64) {
	if l == nil || n <= 0 {
		return
	}
	if l.tryReserve(n) {
		return
	}
	l.reclaim(n)
	l.mu.Lock()
	l.used += n
	if l.used > l.peak {
		l.peak = l.used
	}
	l.mu.Unlock()
}

// reclaim asks the registered reclaimers to free up to need bytes,
// stopping early once enough has been released.
func (l *Ledger) reclaim(need int64) {
	l.rmu.Lock()
	rs := l.reclaimers
	l.rmu.Unlock()
	l.mu.Lock()
	short := l.used + need - l.cap
	l.mu.Unlock()
	for _, f := range rs {
		if short <= 0 {
			return
		}
		short -= f(short)
	}
}

// Release returns n reserved bytes to the ledger.
func (l *Ledger) Release(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	l.used -= n
	if l.used < 0 {
		// Over-release indicates an accounting bug in a caller; clamp
		// so the ledger never hands out phantom capacity forever.
		l.used = 0
	}
	l.mu.Unlock()
}

// Used reports the currently reserved bytes.
func (l *Ledger) Used() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Peak reports the reservation high-water mark.
func (l *Ledger) Peak() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}

// Cap reports the ledger's capacity (0 for the unlimited nil ledger).
func (l *Ledger) Cap() int64 {
	if l == nil {
		return 0
	}
	return l.cap
}
