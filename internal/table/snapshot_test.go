package table

import (
	"errors"
	"testing"

	"ulmt/internal/checkpoint"
	"ulmt/internal/mem"
)

type tableCodec interface {
	Learn(m mem.Line, s Sink)
	Snapshot(w *checkpoint.Writer)
	Restore(r *checkpoint.Reader)
}

// TestRestoreRejectsBadIndices restores well-formed table payloads
// holding an occupancy count above NumSucc or a valid last-miss
// pointer outside the geometry: each must fail with ErrCorrupt
// instead of restoring an index a later Learn or lookup would read
// through, into a neighbouring row or past the arrays.
func TestRestoreRejectsBadIndices(t *testing.T) {
	p := Params{NumRows: 8, Assoc: 2, NumSucc: 2, NumLevels: 2}
	sets := p.NumRows / p.Assoc
	base := func() tableCodec { return NewBase(p, 0) }
	repl := func() tableCodec { return NewRepl(p, 0) }
	for _, tc := range []struct {
		name  string
		mk    func() tableCodec
		spoil func(tableCodec)
		bad   bool
	}{
		{"base intact", base, func(tableCodec) {}, false},
		{"repl intact", repl, func(tableCodec) {}, false},
		{"base count above NumSucc", base, func(c tableCodec) { c.(*BaseTable).cnt[0] = 3 }, true},
		{"repl count above NumSucc", repl, func(c tableCodec) { c.(*ReplTable).cnt[1] = 3 }, true},
		{"repl pointer set past the sets", repl, func(c tableCodec) { c.(*ReplTable).last[0].set = sets }, true},
		{"repl pointer negative set", repl, func(c tableCodec) { c.(*ReplTable).last[1].set = -1 }, true},
		{"repl pointer way past assoc", repl, func(c tableCodec) { c.(*ReplTable).last[0].way = p.Assoc }, true},
		{"repl invalid pointer out of range", repl, func(c tableCodec) {
			c.(*ReplTable).last[1] = rowPtr{set: sets, way: -1}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.mk()
			for _, m := range []mem.Line{1, 2, 3, 1, 2, 5} {
				src.Learn(m, NullSink{})
			}
			tc.spoil(src)
			w := checkpoint.NewWriter()
			src.Snapshot(w)
			r := checkpoint.NewReader(w.Bytes())
			tc.mk().Restore(r)
			if err := r.Err(); tc.bad != errors.Is(err, checkpoint.ErrCorrupt) || (!tc.bad && err != nil) {
				t.Fatalf("restore error %v, want ErrCorrupt: %v", err, tc.bad)
			}
		})
	}
}
