package workload

import "ulmt/internal/mem"

// tree models the Barnes treecode (University of Hawaii): a
// Barnes–Hut N-body simulation. Each timestep rebuilds an octree
// over the bodies, then computes forces by walking the tree per body
// with an opening criterion — long chains of dependent pointer loads
// through nodes scattered in the heap. Bodies drift slowly, so the
// tree shape and hence the traversal order are nearly identical from
// step to step: precisely the "miss address sequences repeat"
// property pair-based correlation needs, with no sequential component
// at all. The paper notes Tree (with Sparse) gets the smallest
// speedups because of cache conflicts during traversal.
type tree struct{}

func init() { register(tree{}) }

func (tree) Name() string { return "Tree" }

func (tree) Description() string {
	return "Barnes-Hut N-body: octree build + per-body dependent tree walks"
}

type treeSize struct {
	bodies int
	steps  int
}

func (tree) size(s Scale) treeSize {
	switch s {
	case ScaleTiny:
		return treeSize{bodies: 3 << 9, steps: 2}
	case ScaleSmall:
		return treeSize{bodies: 3 << 10, steps: 4}
	case ScaleLarge:
		return treeSize{bodies: 8 << 10, steps: 3}
	default:
		return treeSize{bodies: 4 << 10, steps: 4}
	}
}

const (
	treeBodyBytes = 128 // position, velocity, acceleration, mass, next
	treeCellBytes = 128 // center of mass, quadrupole terms, 8 children (two lines)
)

// bhCell is the functional octree node.
type bhCell struct {
	child [8]int32 // index into cells; -1 empty; -(2+b) leaf body b
	com   [3]float64
	mass  float64
}

func (w tree) Generate(s Scale) []Op { return generate(s, w.build) }

func (w tree) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0x7BEE)

	nb := sz.bodies
	bodies := b.Alloc(nb * treeBodyBytes)
	bodyAt := func(i int) mem.Addr { return bodies + mem.Addr(i*treeBodyBytes) }

	// Cell pool: generous bound of 2x bodies.
	maxCells := 2 * nb
	cellsBase := b.Alloc(maxCells * treeCellBytes)
	cellAt := func(i int) mem.Addr { return cellsBase + mem.Addr(i*treeCellBytes) }

	// Body positions in [0,1)^3, Plummer-ish central clustering.
	pos := make([][3]float64, nb)
	vel := make([][3]float64, nb)
	for i := range pos {
		for d := 0; d < 3; d++ {
			u := float64(r.next()%(1<<20)) / (1 << 20)
			pos[i][d] = 0.5 + (u-0.5)*(0.2+0.8*u*u)
			vel[i][d] = (float64(r.next()%(1<<20))/(1<<20) - 0.5) * 1e-3
		}
	}

	cells := make([]bhCell, 0, maxCells)

	newCell := func() int32 {
		cells = append(cells, bhCell{child: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}})
		return int32(len(cells) - 1)
	}

	octant := func(p [3]float64, cx, cy, cz float64) int {
		o := 0
		if p[0] >= cx {
			o |= 1
		}
		if p[1] >= cy {
			o |= 2
		}
		if p[2] >= cz {
			o |= 4
		}
		return o
	}

	var insert func(cell int32, body int, cx, cy, cz, half float64, depth int)
	insert = func(cell int32, body int, cx, cy, cz, half float64, depth int) {
		o := octant(pos[body], cx, cy, cz)
		nx := cx + half/2*float64(2*(o&1)-1)
		ny := cy + half/2*float64(2*((o>>1)&1)-1)
		nz := cz + half/2*float64(2*((o>>2)&1)-1)
		// Touch the cell while descending (dependent chain).
		b.LoadDep(cellAt(int(cell)))
		ch := cells[cell].child[o]
		switch {
		case ch == -1:
			cells[cell].child[o] = -(2 + int32(body))
			b.Store(cellAt(int(cell)))
		case ch <= -2:
			// Occupied by a body: split, unless too deep.
			other := int(-ch - 2)
			if depth > 20 || len(cells) >= maxCells-1 {
				return
			}
			nc := newCell()
			cells[cell].child[o] = nc
			b.Store(cellAt(int(nc)))
			insert(nc, other, nx, ny, nz, half/2, depth+1)
			insert(nc, body, nx, ny, nz, half/2, depth+1)
		default:
			insert(ch, body, nx, ny, nz, half/2, depth+1)
		}
	}

	// walk computes the force on one body by opening cells whose
	// subtended size exceeds theta.
	var walk func(body int, cell int32, half float64)
	walk = func(body int, cell int32, half float64) {
		// A cell record (center of mass, moments, 8 children) spans
		// two cache lines; the walk reads both.
		b.LoadDep(cellAt(int(cell)))
		b.LoadDep(cellAt(int(cell)) + 64)
		c := &cells[cell]
		dx := c.com[0] - pos[body][0]
		dy := c.com[1] - pos[body][1]
		dz := c.com[2] - pos[body][2]
		d2 := dx*dx + dy*dy + dz*dz + 1e-9
		const theta = 0.8
		if half*half < theta*theta*d2 {
			b.Work(12) // accept the multipole: force kernel
			return
		}
		for o := 0; o < 8; o++ {
			ch := c.child[o]
			if ch == -1 {
				continue
			}
			if ch <= -2 {
				other := int(-ch - 2)
				if other != body {
					b.LoadDep(bodyAt(other))
					b.Work(12)
				}
				continue
			}
			walk(body, ch, half/2)
		}
	}

	for step := 0; step < sz.steps; step++ {
		// Build the octree.
		cells = cells[:0]
		root := newCell()
		for i := 0; i < nb; i++ {
			b.Load(bodyAt(i))
			insert(root, i, 0.5, 0.5, 0.5, 0.5, 0)
			b.Work(8)
		}
		// Center-of-mass pass: sequential over the cell pool (the
		// one mild sequential stream), computing summaries.
		for ci := len(cells) - 1; ci >= 0; ci-- {
			b.Load(cellAt(ci))
			b.Store(cellAt(ci))
			b.Work(6)
			// Functional summary: accumulate child masses.
			c := &cells[ci]
			c.mass = 0
			for o := 0; o < 8; o++ {
				if ch := c.child[o]; ch <= -2 {
					body := int(-ch - 2)
					c.mass++
					for d := 0; d < 3; d++ {
						c.com[d] += pos[body][d]
					}
				} else if ch >= 0 {
					c.mass += cells[ch].mass
					for d := 0; d < 3; d++ {
						c.com[d] += cells[ch].com[d] * cells[ch].mass
					}
				}
			}
			if c.mass > 0 {
				for d := 0; d < 3; d++ {
					c.com[d] /= c.mass
				}
			}
		}
		// Force computation: per-body tree walk. The body record
		// (position, velocity, acceleration, mass) spans two lines.
		for i := 0; i < nb; i++ {
			b.Load(bodyAt(i))
			b.Load(bodyAt(i) + 64)
			walk(i, root, 0.5)
			b.Store(bodyAt(i) + 64)
		}
		// Advance bodies slightly so the next step's tree is nearly
		// but not exactly identical.
		for i := 0; i < nb; i++ {
			for d := 0; d < 3; d++ {
				pos[i][d] += vel[i][d]
				if pos[i][d] < 0 {
					pos[i][d] = 0
				}
				if pos[i][d] >= 1 {
					pos[i][d] = 0.999999
				}
			}
			b.Load(bodyAt(i))
			b.Store(bodyAt(i))
			b.Load(bodyAt(i) + 64)
			b.Store(bodyAt(i) + 64)
			b.Work(8)
		}
	}
}
