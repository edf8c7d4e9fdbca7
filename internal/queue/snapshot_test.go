package queue

import (
	"errors"
	"testing"

	"ulmt/internal/checkpoint"
)

// TestFilterRestoreRejectsBadRing restores filter payloads whose ring
// head or length lies outside the capacity: each must fail with
// ErrCorrupt instead of panicking, spinning, or restoring an index a
// later Admit would trip over.
func TestFilterRestoreRejectsBadRing(t *testing.T) {
	const capacity = 4
	for _, tc := range []struct {
		name    string
		head, n int
	}{
		{"negative head", -1, 1},
		{"head past capacity", capacity, 1},
		{"length past capacity", 0, 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := checkpoint.NewWriter()
			w.Tag("filter")
			w.Int(capacity)
			for i := 0; i < capacity; i++ {
				w.U64(uint64(i + 1))
			}
			w.Int(tc.head)
			w.Int(tc.n)
			w.U64(0)
			w.U64(0)
			r := checkpoint.NewReader(w.Bytes())
			mustFilter(capacity).Restore(r)
			if err := r.Err(); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("restore error %v, want ErrCorrupt", err)
			}
		})
	}
}
