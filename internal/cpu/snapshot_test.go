package cpu

import (
	"errors"
	"testing"

	"ulmt/internal/checkpoint"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// TestRestoreRejectsBadIndices restores well-formed processor
// payloads whose program counter lies outside the op stream, or whose
// in-flight load sits at an op the counter has not reached: each must
// fail with ErrCorrupt instead of restoring an index the next step
// would trip over.
func TestRestoreRejectsBadIndices(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.Load, Addr: 64},
		{Kind: workload.Compute, Work: 4},
		{Kind: workload.Load, Addr: 128},
	}
	mk := func() *Processor {
		eng := sim.NewEngine()
		p, err := New(eng, DefaultConfig(), newFakeMem(eng), ops)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name      string
		pc, opIdx int // opIdx < -1 means no in-flight load
		bad       bool
	}{
		{"intact", len(ops), 0, false},
		{"intact, nothing in flight", 1, -2, false},
		{"negative pc", -1, -2, true},
		{"pc past the stream", len(ops) + 1, -2, true},
		{"in-flight load past pc", 1, 2, true},
		{"negative in-flight index", 1, -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := mk()
			src.pc = tc.pc
			if tc.opIdx >= -1 {
				src.inflight = []inflightLoad{{id: 1, opIdx: tc.opIdx, done: true}}
			}
			w := checkpoint.NewWriter()
			src.Snapshot(w)
			r := checkpoint.NewReader(w.Bytes())
			mk().Restore(r)
			if err := r.Err(); tc.bad != errors.Is(err, checkpoint.ErrCorrupt) || (!tc.bad && err != nil) {
				t.Fatalf("restore error %v, want ErrCorrupt: %v", err, tc.bad)
			}
		})
	}
}
