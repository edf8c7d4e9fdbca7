package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// This file splits a CPU profile into per-module self time. It reads
// the gzipped profile.proto that runtime/pprof writes with a minimal
// protobuf decoder, so the benchmark needs nothing beyond the
// standard library.

// modules are the self_frac.* buckets, in report order. A simulator
// package is its own bucket; gc is collector work (background marking,
// assists, sweeping), alloc is the allocator, runtime is the rest of
// the Go runtime, bench is this program, and other is any remaining
// simulator package.
var modules = []string{
	"workload", "trace", "table", "prefetch", "memproc", "queue", "core",
	"cache", "cpu", "sim", "bus", "dram", "mem", "stats", "experiment",
	"report", "budget", "gc", "alloc", "runtime", "bench", "other",
}

// profileSelfFrac returns each module's share of the profile's CPU
// time, by the leaf frame's module. Standard-library frames count
// toward the nearest simulator or benchmark frame above them.
func profileSelfFrac(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	by := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds follow the sample count
		var frames []string
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				frames = append(frames, p.strings[p.functions[fn]])
			}
		}
		by[moduleOf(frames)] += v
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		out[m] = ratio(float64(by[m]), float64(total))
	}
	return out, nil
}

// moduleOf attributes one stack, leaf first.
func moduleOf(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot"):
			return "gc"
		case strings.HasPrefix(f, "runtime.mallocgc") || f == "runtime.growslice" ||
			f == "runtime.makeslice" || f == "runtime.newobject":
			return "alloc"
		case strings.HasPrefix(f, "main."):
			return "bench"
		case strings.HasPrefix(f, "ulmt/internal/"):
			pkg := strings.TrimPrefix(f, "ulmt/internal/")
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			for _, m := range modules {
				if m == pkg {
					return m
				}
			}
			return "other"
		}
	}
	return "runtime"
}

// profile holds the parts of profile.proto the split needs.
type profile struct {
	samples   []pSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type pSample struct {
	locations []uint64
	values    []int64
}

var errProto = errors.New("malformed profile")

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
	wireVarint       = 0
	wireBytes        = 2
	wireFixed64      = 1
	wireFixed32      = 5
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := fields(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s pSample
			err := fields(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					return varints(wire, v, sub, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return varints(wire, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := fields(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("%w: function name index %d", errProto, name)
		}
	}
	return p, nil
}

// fields walks one message, calling fn with each field's number, wire
// type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case wireFixed64:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field in either encoding: one
// varint per field, or packed into one length-delimited field.
func varints(wire int, v uint64, sub []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errProto
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}
