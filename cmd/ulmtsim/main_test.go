package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestMiBToBytes pins the -mem-budget conversion: in-range MiB counts
// shift exactly, and values that are negative or whose byte count
// would wrap an int64 are rejected with the MiB figure as given.
func TestMiBToBytes(t *testing.T) {
	const maxMiB = math.MaxInt64 >> 20
	for _, tc := range []struct {
		mib  int64
		want int64
	}{
		{0, 0},
		{192, 192 << 20},
		{maxMiB, maxMiB << 20},
	} {
		got, err := mibToBytes(tc.mib)
		if err != nil || got != tc.want {
			t.Errorf("mibToBytes(%d) = %d, %v; want %d", tc.mib, got, err, tc.want)
		}
	}
	for _, mib := range []int64{-1, maxMiB + 1, 1 << 44, math.MaxInt64} {
		_, err := mibToBytes(mib)
		if err == nil {
			t.Errorf("mibToBytes(%d) accepted", mib)
			continue
		}
		if want := fmt.Sprintf("got %d", mib); !strings.Contains(err.Error(), want) {
			t.Errorf("mibToBytes(%d) error %q does not report the MiB value", mib, err)
		}
	}
}
