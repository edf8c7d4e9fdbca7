package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ulmt/internal/fault"
	"ulmt/internal/workload"
)

// TestGoldenMulticore pins the rendered `-exp multicore` report, byte
// for byte, over the machine shapes the windowed multi-core schedule
// runs: private per-core tables and a two-shard shared table on two
// and four cores, plus four-core machines under fault plans: private
// tables under the light plan, and the two-shard table under the
// light and heavy plans, which reach the shared thread's session
// stalls and the sharded push path's drop and delay gates. The
// fault-free and private-table digests were recorded from the
// release that still carried the intra-run worker pool and the
// window cap, so they also pin the sequential schedule to what every
// worker count and cap produced. Regenerating them is only legitimate when the simulated
// machine model itself changes.
func TestGoldenMulticore(t *testing.T) {
	light, err := fault.ParseSpec("light", 1)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := fault.ParseSpec("heavy", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		cores, shards int
		faults        *fault.Plan
		want          string
	}{
		{"2core/private", 2, 0, nil,
			"26014116e291507718b0d60c51d4fc0b7368c084d1b1cfb073134e5ddf799e3f"},
		{"2core/2shards", 2, 2, nil,
			"f8285e4c26e911799ae40c41b6c2a4712a77a070aa595804b940a32e8266502c"},
		{"4core/private", 4, 0, nil,
			"316418ba5cac0e19ec4e346252bdeee94a6c489e784e2b9549f9e76d7b0fde60"},
		{"4core/2shards", 4, 2, nil,
			"3fa2eee57c1623b1b847ca22caf8bb2a821b6b0f8c51672c0fe82cbf1f6912e4"},
		{"4core/private/faults-light", 4, 0, light,
			"1d9e2538a63a65fd22a83a10cd04ae2ec6b476aaa7b5cb5c2a0c31f792ede630"},
		{"4core/2shards/faults-light", 4, 2, light,
			"e0d746b04f2357a2758cb321a9d1f73be3d34e833473fb698d043e43011a49d5"},
		{"4core/2shards/faults-heavy", 4, 2, heavy,
			"efec070a4548867144850a2e66cf7a34303921952b53e4cbe4e63a61f520bdfa"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(Options{
				Scale: workload.ScaleTiny, Seed: 1, Jobs: 1,
				Cores: tc.cores, Shards: tc.shards, Faults: tc.faults,
			})
			var buf bytes.Buffer
			if err := r.Render(&buf, "multicore"); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("multicore report diverged from golden:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
