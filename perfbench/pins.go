package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// pinned.json holds, per workload and seed, the digest of every output
// a pass delivers: the rendered report's sha256 for paper-matrix, and
// a digest of each run's simulated results for the other workloads.
//
//go:embed pinned.json
var pinnedJSON []byte

type pins map[string]map[string]map[string]string

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return p, nil
}

// lookup returns the pinned digests of one workload and seed, or nil.
func (p pins) lookup(workload string, seed uint64) map[string]string {
	return p[workload][strconv.FormatUint(seed, 10)]
}
