package workload

import "ulmt/internal/mem"

// gap models SpecInt2000 254.gap: computational group theory. The
// kernel composes permutations from a generating set (gather-driven
// array indexing), maintains an orbit via breadth-first expansion,
// and tests membership in an open-addressing hash stash. Irregular,
// integer-only, with access sequences that repeat because the
// generator set is fixed — the behavior class that gives Gap its mix
// of pair-based predictability with little sequential structure.
type gap struct{}

func init() { register(gap{}) }

func (gap) Name() string { return "Gap" }

func (gap) Description() string {
	return "permutation-group algebra: composition gathers, orbit BFS, hash stash probes"
}

type gapSize struct {
	degree int // points the permutations act on
	perms  int // stored permutations
	rounds int
}

func (gap) size(s Scale) gapSize {
	switch s {
	case ScaleTiny:
		return gapSize{degree: 4 << 10, perms: 48, rounds: 2}
	case ScaleSmall:
		return gapSize{degree: 8 << 10, perms: 96, rounds: 4}
	case ScaleLarge:
		return gapSize{degree: 16 << 10, perms: 256, rounds: 5}
	default:
		return gapSize{degree: 12 << 10, perms: 160, rounds: 5}
	}
}

func (w gap) Generate(s Scale) []Op { return generate(s, w.build) }

func (w gap) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0x9A9)

	const i32 = 4
	d, np := sz.degree, sz.perms

	// The stash of permutations: np arrays of degree int32 images.
	perms := b.Alloc(np * d * i32)
	permAt := func(p, i int) mem.Addr { return perms + mem.Addr((p*d+i)*i32) }

	// Functional images, so composition really composes.
	images := make([][]int32, np)
	for p := range images {
		images[p] = identityShuffled(d, r)
	}

	// Hash stash for membership tests: open addressing, 4x degree
	// slots of 8 bytes.
	stashSlots := 4 * d
	stash := b.Alloc(stashSlots * 8)

	// Scratch permutation buffers.
	scratch := b.Alloc(d * i32)
	orbitQ := b.Alloc(d * i32)

	seen := make([]bool, d)

	// The composition schedule is fixed — GAP's stabilizer-chain
	// sifting applies the same generator products over and over —
	// so every round re-executes the same gather sequences, which is
	// what makes Gap's misses pair-predictable.
	type pair struct{ p, q int }
	schedule := make([]pair, 6)
	for i := range schedule {
		schedule[i] = pair{p: r.intn(np), q: r.intn(np)}
	}
	orbitSeed := r.intn(d)

	for round := 0; round < sz.rounds; round++ {
		// 1. Compose the scheduled pairs: out[i] = p[q[i]]. The load
		// of q[i] is sequential; the gather into p depends on it.
		for c := 0; c < 6; c++ {
			pi := schedule[c].p
			qi := schedule[c].q
			q := images[qi]
			for i := 0; i < d; i++ {
				b.Load(permAt(qi, i))
				b.LoadDep(permAt(pi, int(q[i])))
				b.Store(scratch + mem.Addr(i*i32))
				b.Work(3)
			}
		}
		// 2. Orbit expansion: BFS from a seed point applying every
		// generator; the frontier is sequential, the images are
		// gathers that repeat each round (same generators).
		for i := range seen {
			seen[i] = false
		}
		head, tail := 0, 1
		seen[orbitSeed] = true
		front := []int32{int32(orbitSeed)}
		for head < tail && tail < d {
			pt := front[head]
			b.Load(orbitQ + mem.Addr(head%d*i32))
			head++
			for g := 0; g < 4; g++ {
				img := images[g][pt]
				b.LoadDep(permAt(g, int(pt)))
				if !seen[img] {
					seen[img] = true
					front = append(front, img)
					b.Store(orbitQ + mem.Addr(tail%d*i32))
					tail++
				}
				b.Work(5)
			}
		}
		// 3. Membership probes in the stash: hashed, clustered probe
		// sequences that repeat for repeated queries.
		for t := 0; t < d/2; t++ {
			h := int(mix(uint64(t)*2654435761) % uint64(stashSlots))
			probes := 1 + int(mix(uint64(t))%3)
			for k := 0; k < probes; k++ {
				b.LoadDep(stash + mem.Addr(((h+k)%stashSlots)*8))
				b.Work(5)
			}
			if t%7 == 0 {
				b.Store(stash + mem.Addr(((h+probes)%stashSlots)*8))
			}
		}
	}
}

// identityShuffled returns a random permutation of [0,d).
func identityShuffled(d int, r *rng) []int32 {
	p := make([]int32, d)
	for i := range p {
		p[i] = int32(i)
	}
	for i := d - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mix is a stateless hash for reproducible pseudo-random choices that
// must not advance the main generator.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
