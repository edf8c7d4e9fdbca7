package workload

import "ulmt/internal/mem"

// equake models SpecFP2000 183.equake: seismic wave propagation on an
// unstructured tetrahedral mesh. Each timestep multiplies the sparse
// stiffness matrix (node-adjacency structure, irregular but fixed)
// into the displacement vector, then sweeps the velocity and
// displacement arrays with the time integrator. The result is the
// mixed behavior Fig 5 shows for Equake: sequential streams from the
// integrator sweeps, plus an irregular-but-repeating gather from the
// mesh adjacency.
type equake struct{}

func init() { register(equake{}) }

func (equake) Name() string { return "Equake" }

func (equake) Description() string {
	return "unstructured-mesh seismic propagation; mixed sequential sweeps and mesh gathers"
}

type equakeSize struct {
	nodes int
	deg   int // adjacency entries per node
	steps int
}

func (equake) size(s Scale) equakeSize {
	switch s {
	case ScaleTiny:
		return equakeSize{nodes: 4 << 10, deg: 6, steps: 2}
	case ScaleSmall:
		return equakeSize{nodes: 8 << 10, deg: 8, steps: 3}
	case ScaleLarge:
		return equakeSize{nodes: 40 << 10, deg: 10, steps: 3}
	default:
		return equakeSize{nodes: 16 << 10, deg: 8, steps: 4}
	}
}

func (w equake) Generate(s Scale) []Op { return generate(s, w.build) }

func (w equake) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0xE9)

	const f64 = 8
	const i32 = 4
	n, deg := sz.nodes, sz.deg

	kval := b.Alloc(n * deg * f64 * 3) // 3x3 block values, abbreviated
	kcol := b.Alloc(n * deg * i32)
	disp := b.Alloc(n * 64) // one line per node: disp, vel and force records
	vel := b.Alloc(n * 64)
	force := b.Alloc(n * 64)

	// Mesh adjacency: mostly local neighbors (mesh locality) with a
	// tail of distant nodes (mesh irregularity). Fixed across steps.
	adj := make([]int32, n*deg)
	for i := 0; i < n; i++ {
		for j := 0; j < deg; j++ {
			var c int
			if j < deg-3 {
				c = i + r.intn(64) - 32
				if c < 0 {
					c += n
				}
				if c >= n {
					c -= n
				}
			} else {
				c = r.intn(n)
			}
			adj[i*deg+j] = int32(c)
		}
	}

	for step := 0; step < sz.steps; step++ {
		// force = K * disp — the matrix sweep walks the mesh in
		// connectivity order: the next neighbor to gather comes from
		// the adjacency entry of the node just visited, so the
		// irregular part of the sweep is a dependent chain whose
		// order is fixed by the mesh and repeats every timestep.
		for i := 0; i < n; i++ {
			cur := i
			for j := 0; j < deg; j++ {
				k := i*deg + j
				if j == 0 {
					// The row itself is reached through the node
					// list: dependent on the walk.
					b.LoadDep(kval + mem.Addr(k*f64*3))
				} else {
					b.Load(kval + mem.Addr(k*f64*3))
				}
				b.Load(kcol + mem.Addr(k*i32))
				cur = int(adj[cur*deg+j])
				b.LoadDep(disp + mem.Addr(cur*64))
				b.Work(18) // 3x3 block multiply, abbreviated
			}
			b.Store(force + mem.Addr(i*64))
		}
		// Time integration: vel += dt*force ; disp += dt*vel. The
		// solver walks the node list through its next pointers (the
		// mesh is unstructured; nodes are visited via links even
		// though this instance lays them out in order), so each
		// node's first access depends on the previous node — the
		// sweep is latency-paced, and exactly the pattern a stream
		// prefetcher turns into L1 hits.
		for i := 0; i < n; i++ {
			b.LoadDep(force + mem.Addr(i*64))
			b.Load(force + mem.Addr(i*64+32))
			b.Load(vel + mem.Addr(i*64))
			b.Store(vel + mem.Addr(i*64+32))
			b.Load(disp + mem.Addr(i*64))
			b.Store(disp + mem.Addr(i*64+32))
			b.Work(20)
		}
	}
}
