package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ulmt/internal/fault"
	"ulmt/internal/workload"
)

// TestGoldenFaults pins three tiny seed-1 reports rendered under a
// fault plan at fault seed 1, byte for byte. `faults` covers the
// single-core memory thread's session stalls and the push path's
// drop and delay gates; `ablation` under the light plan adds the
// learn-first order, the pull design's dropped pushes and the
// disabled cross-match on top of the same gates. No fault-free golden
// reaches these paths. Regenerating a digest is only legitimate when
// the simulated machine model itself changes.
func TestGoldenFaults(t *testing.T) {
	for _, tc := range []struct {
		exp, spec string
		want      string
	}{
		{"faults", "light", "d21c69cf43c440a05f273d8beb61258718f4644048d81d42a588af347de2d0cf"},
		{"faults", "heavy", "70045f72e8f1a9626485ebc7ee6bca90aa5a05e3812f0e883d0fc427930fdbda"},
		{"ablation", "light", "572d36f1a8d6a6f415e66dece3ee41eefa04ecc64c058b5fe433d8e3427ef39c"},
	} {
		t.Run(tc.exp+"/"+tc.spec, func(t *testing.T) {
			plan, err := fault.ParseSpec(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(Options{Scale: workload.ScaleTiny, Seed: 1, Jobs: 1, Faults: plan})
			if err := r.ExecuteAll(nil, r.PlanRuns([]string{tc.exp}), 2, nil); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.Render(&buf, tc.exp); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s report under %s faults diverged from golden:\n got  %s\n want %s", tc.exp, tc.spec, got, tc.want)
			}
		})
	}
}
