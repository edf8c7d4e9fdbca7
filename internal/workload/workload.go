// Package workload provides the nine applications of the paper's
// Table 2 as deterministic kernels that actually execute the
// application's core algorithm and emit the resulting memory
// reference stream.
//
// We cannot run the SPEC/NAS/Olden binaries the paper used, so each
// kernel reproduces the *memory behavior class* that made its
// application interesting for correlation prefetching:
//
//	CG      NAS       conjugate gradient; many concurrent sequential
//	                  streams plus a near-diagonal gather
//	Equake  SpecFP    unstructured-mesh sparse MVM plus time
//	                  integration sweeps (mixed regular/irregular)
//	FT      NAS       3D FFT; large-stride butterflies that repeat
//	                  exactly across iterations
//	Gap     SpecInt   permutation-group algebra; gather-driven
//	                  composition and hash membership
//	Mcf     SpecInt   network-simplex style arc/node pointer chasing
//	                  with long dependent chains
//	MST     Olden     minimum spanning tree over per-vertex hash
//	                  buckets; dependent chain walks
//	Parser  SpecInt   dictionary hash + chain lookups over a cyclic
//	                  text stream
//	Sparse  SparseBench GMRES with compressed-row storage; conflicting
//	                  Krylov-basis vectors
//	Tree    Barnes    Barnes–Hut N-body; tree walks that repeat across
//	                  timesteps
//
// Each kernel is seeded and deterministic: the same scale always
// yields the same op stream, so every experiment is reproducible.
package workload

import (
	"fmt"
	"sort"

	"ulmt/internal/mem"
)

// Kind classifies one op in the dynamic stream.
type Kind uint8

const (
	// Compute represents Work cycles of non-memory execution.
	Compute Kind = iota
	// Load is a data read at Addr. If Dep is set it consumes the
	// value of the most recent Load and cannot issue before it.
	Load
	// Store is a data write at Addr; stores are buffered and never
	// stall the processor unless the store buffer fills.
	Store
)

// Op is one element of the dynamic instruction stream handed to the
// CPU model. Virtual addresses; the system translates them.
type Op struct {
	Addr mem.Addr
	Work uint16
	Kind Kind
	Dep  bool
}

// Scale selects a problem size. Tests use Tiny/Small; the experiment
// driver defaults to Medium; Large approaches the paper's footprints.
type Scale int

const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScaleMedium
	ScaleLarge
)

// String names the scale for flags and reports.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	}
	return 0, fmt.Errorf("workload: unknown scale %q", s)
}

// Workload generates the op stream of one application.
type Workload interface {
	// Name is the Table 2 identifier (CG, Equake, ...).
	Name() string
	// Description summarizes the modeled behavior.
	Description() string
	// Generate produces the deterministic op stream for a scale.
	Generate(s Scale) []Op
}

var registry = map[string]Workload{}
var order []string

func register(w Workload) {
	if _, dup := registry[w.Name()]; dup {
		panic("workload: duplicate registration of " + w.Name())
	}
	registry[w.Name()] = w
	order = append(order, w.Name())
}

// ByName looks a workload up by its Table 2 name.
func ByName(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return w, nil
}

// All returns the nine workloads in the paper's table order.
func All() []Workload {
	names := Names()
	out := make([]Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Names returns the registered names in table order.
func Names() []string {
	want := []string{"CG", "Equake", "FT", "Gap", "Mcf", "MST", "Parser", "Sparse", "Tree"}
	// Fall back to sorted registration order if the set ever differs
	// (e.g. experimental workloads registered by tests).
	if len(order) == len(want) {
		ok := true
		for _, n := range want {
			if _, exists := registry[n]; !exists {
				ok = false
				break
			}
		}
		if ok {
			return want
		}
	}
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// rng is a splitmix64 generator: tiny, fast, deterministic, and
// independent of math/rand version changes.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Builder accumulates an op stream and owns a bump allocator for the
// kernel's simulated virtual address space. Compute cycles between
// memory references are coalesced into single Compute ops.
type Builder struct {
	ops     []Op
	heap    mem.Addr
	pending int
	// counting makes the builder count ops into n instead of storing
	// them: the first of generate's two runs of a kernel body.
	counting bool
	n        int
}

// heapBase leaves page zero unused so that address 0 never appears.
const heapBase mem.Addr = 1 << 20

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{heap: heapBase} }

// generate runs a kernel body twice: once counting its ops, then into
// a stream allocated at exactly that length. Growing the stream by
// append would copy it about five times into freshly faulted pages,
// which costs more than a second run of the body. Bodies seed their
// own RNG and hold no package state, so both runs emit the same ops.
func generate(s Scale, body func(Scale, *Builder)) []Op {
	c := &Builder{heap: heapBase, counting: true}
	body(s, c)
	c.flushWork()
	b := &Builder{heap: heapBase, ops: make([]Op, 0, c.n)}
	body(s, b)
	return b.Ops()
}

// Alloc reserves n bytes of simulated memory, 64-byte aligned so
// arrays start on L2 line boundaries.
func (b *Builder) Alloc(n int) mem.Addr {
	a := b.heap
	b.heap += mem.Addr((n + 63) &^ 63)
	return a
}

// AllocAligned reserves n bytes at the next multiple of align (a
// power of two). Sparse uses it to force Krylov vectors into
// conflicting cache sets.
func (b *Builder) AllocAligned(n, align int) mem.Addr {
	a := (uint64(b.heap) + uint64(align-1)) &^ uint64(align-1)
	b.heap = mem.Addr(a) + mem.Addr((n+63)&^63)
	return mem.Addr(a)
}

// Footprint reports the bytes allocated so far.
func (b *Builder) Footprint() int { return int(b.heap - heapBase) }

func (b *Builder) emit(op Op) {
	if b.counting {
		b.n++
		return
	}
	b.ops = append(b.ops, op)
}

func (b *Builder) flushWork() {
	for b.pending > 0 {
		w := b.pending
		if w > 60000 {
			w = 60000
		}
		b.emit(Op{Kind: Compute, Work: uint16(w)})
		b.pending -= w
	}
}

// Work records n compute cycles before the next memory op.
func (b *Builder) Work(n int) { b.pending += n }

// Load appends an independent load.
func (b *Builder) Load(a mem.Addr) {
	b.flushWork()
	b.emit(Op{Kind: Load, Addr: a})
}

// LoadDep appends a load that depends on the most recent load (a
// pointer chase or index gather).
func (b *Builder) LoadDep(a mem.Addr) {
	b.flushWork()
	b.emit(Op{Kind: Load, Addr: a, Dep: true})
}

// Store appends a store.
func (b *Builder) Store(a mem.Addr) {
	b.flushWork()
	b.emit(Op{Kind: Store, Addr: a})
}

// Ops finalizes and returns the stream.
func (b *Builder) Ops() []Op {
	b.flushWork()
	return b.ops
}

// Len reports the ops emitted so far (not counting pending work).
func (b *Builder) Len() int { return len(b.ops) }
