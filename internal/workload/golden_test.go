package workload

import (
	"testing"
)

// Fingerprint hashes an op stream (FNV-1a over the op fields): a
// cheap identity for regression-locking the generators. If a kernel
// changes on purpose, update the golden value below — a silent change
// would otherwise invalidate recorded experiment results.
func Fingerprint(ops []Op) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range ops {
		op := &ops[i]
		mix(uint64(op.Addr))
		mix(uint64(op.Work))
		mix(uint64(op.Kind))
		if op.Dep {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

func TestFingerprintDiscriminates(t *testing.T) {
	a := []Op{{Kind: Load, Addr: 1}}
	b := []Op{{Kind: Load, Addr: 2}}
	c := []Op{{Kind: Load, Addr: 1, Dep: true}}
	if Fingerprint(a) == Fingerprint(b) || Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint collisions on trivially different streams")
	}
}

// TestGoldenFingerprints locks the tiny- and small-scale op streams
// against accidental changes. If a kernel is changed *on purpose*,
// update the golden values here (run with -v to print the new ones)
// and note that recorded experiment results predate the change. It
// also checks that every stream is allocated once, at its final
// length: generate's counting run must predict exactly what the
// storing run emits.
func TestGoldenFingerprints(t *testing.T) {
	golden := map[Scale]map[string]uint64{
		ScaleTiny: {
			"CG":     0x771191779a79c19b,
			"Equake": 0x4bf32f15b2857f83,
			"FT":     0x7f0660f406971383,
			"Gap":    0xd1c9b7661cc40d83,
			"Mcf":    0xc63c6624fe575421,
			"MST":    0x38be3beffc4804db,
			"Parser": 0xe772ecb92264c896,
			"Sparse": 0x708c6bc604ef3bc3,
			"Tree":   0x893e9dfb7790eda5,
		},
		ScaleSmall: {
			"CG":     0x27eabfc838363503,
			"Equake": 0xd86529505b34a503,
			"FT":     0xbbb00b8f862c8383,
			"Gap":    0x9b17686035d52223,
			"Mcf":    0xa8a01c2ccac9dd43,
			"MST":    0x08fa46138fd8f942,
			"Parser": 0x8f2a244c56710b8f,
			"Sparse": 0x9f5206cb1a51d1fb,
			"Tree":   0x462aee79aed19ec5,
		},
	}
	for _, s := range []Scale{ScaleTiny, ScaleSmall} {
		for _, w := range All() {
			ops := w.Generate(s)
			if len(ops) != cap(ops) {
				t.Errorf("%s %v: len %d != cap %d", w.Name(), s, len(ops), cap(ops))
			}
			got := Fingerprint(ops)
			t.Logf("%s %v fingerprint: %#x", w.Name(), s, got)
			if want := golden[s][w.Name()]; got != want {
				t.Errorf("%s %v: fingerprint %#x != golden %#x (intentional kernel change? update the golden)",
					w.Name(), s, got, want)
			}
		}
	}
}
