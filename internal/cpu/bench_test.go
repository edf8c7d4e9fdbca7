package cpu

import (
	"testing"

	"ulmt/internal/sim"
)

// BenchmarkProcessorL1Hits measures the processor retiring an
// L1-hit-dominated stream through the event queue: one issue-step
// event per cycle and one completion event per hit.
func BenchmarkProcessorL1Hits(b *testing.B) {
	ops := randomOps(1, 50000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		p, err := New(eng, DefaultConfig(), newFakeMem(eng), ops)
		if err != nil {
			b.Fatal(err)
		}
		p.Start(nil)
		eng.Run()
		if !p.Finished() {
			b.Fatal("processor did not finish")
		}
	}
	b.ReportMetric(float64(len(ops)), "ops/run")
}
