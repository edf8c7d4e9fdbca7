package workload

import "ulmt/internal/mem"

// mcf models SpecInt2000 181.mcf: minimum-cost flow by network
// simplex. The kernel owns a node array and an arc array; every
// pricing pass walks the arcs in a fixed scrambled linked order (mcf
// visits arcs through bucket lists, not sequentially), dereferences
// tail and head nodes, and for candidate arcs climbs the spanning
// tree through parent pointers — long chains of dependent loads.
//
// Mcf is the paper's poster-child irregular application: Fig 5 shows
// essentially zero sequential predictability but high pair-based
// predictability, because the arc order and the tree shape are stable
// across passes.
type mcf struct{}

func init() { register(mcf{}) }

func (mcf) Name() string { return "Mcf" }

func (mcf) Description() string {
	return "network simplex pricing: linked arc walk, node derefs, tree-parent chains"
}

type mcfSize struct {
	nodes  int
	arcsPN int // arcs per node
	passes int
}

func (mcf) size(s Scale) mcfSize {
	switch s {
	case ScaleTiny:
		return mcfSize{nodes: 4 << 10, arcsPN: 4, passes: 2}
	case ScaleSmall:
		return mcfSize{nodes: 8 << 10, arcsPN: 5, passes: 3}
	case ScaleLarge:
		return mcfSize{nodes: 24 << 10, arcsPN: 6, passes: 5}
	default:
		return mcfSize{nodes: 16 << 10, arcsPN: 6, passes: 4}
	}
}

const (
	mcfNodeBytes = 64 // potential, parent, depth, basic-arc, flow, ...
	mcfArcBytes  = 64 // tail, head, cost, flow, next-in-order (line-sized record)
)

func (w mcf) Generate(s Scale) []Op { return generate(s, w.build) }

func (w mcf) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0x3CF)

	n := sz.nodes
	m := n * sz.arcsPN

	nodes := b.Alloc(n * mcfNodeBytes)
	arcs := b.Alloc(m * mcfArcBytes)
	nodeAt := func(i int) mem.Addr { return nodes + mem.Addr(i*mcfNodeBytes) }
	arcAt := func(i int) mem.Addr { return arcs + mem.Addr(i*mcfArcBytes) }

	// Arc endpoints: a mix of locality (grid-like) and long links.
	tail := make([]int32, m)
	head := make([]int32, m)
	for a := 0; a < m; a++ {
		t := a / sz.arcsPN
		var h int
		if a%sz.arcsPN < 2 {
			h = t + 1 + r.intn(16)
			if h >= n {
				h -= n
			}
		} else {
			h = r.intn(n)
		}
		tail[a] = int32(t)
		head[a] = int32(h)
	}

	// The spanning tree: parent pointers forming chains; depth
	// bounded so chains terminate. Mostly static, with a few pivots
	// per pass to model basis changes.
	parent := make([]int32, n)
	depth := make([]int32, n)
	for i := 1; i < n; i++ {
		p := i - 1 - r.intn(min(i, 64))
		parent[i] = int32(p)
		depth[i] = depth[p] + 1
	}

	// Fixed scrambled arc visiting order as a linked list: order[i]
	// gives the next arc after i.
	order := identityShuffled(m, r)

	for pass := 0; pass < sz.passes; pass++ {
		cur := int32(0)
		for v := 0; v < m; v++ {
			// Load the arc record (its next pointer drives the walk:
			// a dependent chase in a fixed scrambled order).
			b.LoadDep(arcAt(int(cur)))
			// Dereference tail and head node potentials.
			b.LoadDep(nodeAt(int(tail[cur])))
			b.LoadDep(nodeAt(int(head[cur])))
			b.Work(8) // reduced-cost computation
			// Every 32nd arc "enters the basis": climb the tree from
			// the head until the chain bounds out — a pure dependent
			// pointer chain.
			if v%32 == 0 {
				u := head[cur]
				for hop := 0; hop < 12 && depth[u] > 0; hop++ {
					b.LoadDep(nodeAt(int(parent[u])))
					u = parent[u]
					b.Work(4)
				}
				// Update flows along a short arc range.
				b.Store(arcAt(int(cur)))
				b.Store(nodeAt(int(head[cur])))
			}
			cur = order[cur]
		}
		// A few pivots: rewire some parents so later passes differ
		// slightly, as the simplex basis evolves.
		for p := 0; p < n/256; p++ {
			i := 1 + r.intn(n-1)
			np := i - 1 - r.intn(min(i, 64))
			parent[i] = int32(np)
			depth[i] = depth[np] + 1
			b.Store(nodeAt(i))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
