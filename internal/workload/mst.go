package workload

import "ulmt/internal/mem"

// mst models Olden MST: Bentley's minimum-spanning-tree algorithm
// over a graph whose edge weights live in per-vertex hash tables.
// Each step adds the closest remaining vertex, then for every
// remaining vertex hashes the *inserted* vertex to a bucket (so the
// bucket index is constant within a step and cycles across steps, as
// in Olden's HashLookup) and walks a prefix of that bucket's chain —
// a dependent pointer walk whose order is fixed per (vertex, bucket).
//
// Because the pool of chains is far larger than the L2 and a given
// bucket recurs only every ~NumBuckets steps, its lines are cold on
// every revisit: the misses repeat, which is why MST is a strong
// pair-based target (and needs the largest correlation table of
// Table 2) while offering nothing to a sequential prefetcher.
type mst struct{}

func init() { register(mst{}) }

func (mst) Name() string { return "MST" }

func (mst) Description() string {
	return "Olden MST: per-vertex hash tables, dependent bucket-chain walks"
}

type mstSize struct {
	vertices int
	steps    int // MST growth steps simulated (a prefix of v-1)
}

func (mst) size(s Scale) mstSize {
	switch s {
	case ScaleTiny:
		return mstSize{vertices: 256, steps: 72}
	case ScaleSmall:
		return mstSize{vertices: 448, steps: 144}
	case ScaleLarge:
		return mstSize{vertices: 1024, steps: 288} // the paper's input
	default:
		return mstSize{vertices: 704, steps: 208}
	}
}

const (
	mstVertexBytes   = 32 // mindist, closest, next pointers
	mstHashNodeBytes = 64 // key, weight, next (line-sized: each node owns its cache line)
)

func (w mst) Generate(s Scale) []Op { return generate(s, w.build) }

func (w mst) build(s Scale, b *Builder) {
	sz := w.size(s)

	v := sz.vertices
	buckets := 32 // hash buckets per vertex, as in Olden's makegraph

	verts := b.Alloc(v * mstVertexBytes)
	vertAt := func(i int) mem.Addr { return verts + mem.Addr(i*mstVertexBytes) }

	// Each vertex owns a hash table: bucket-head array plus chained
	// nodes. chainNode scatters the k-th node of chain (vi, bi)
	// through a pool sized ~v*v/2 entries, so chain walks are
	// cache-hostile and the full structure dwarfs the L2.
	bucketArr := b.Alloc(v * buckets * 8)
	chainPool := b.Alloc(v * v * mstHashNodeBytes / 2)
	bucketAt := func(vi, bi int) mem.Addr { return bucketArr + mem.Addr((vi*buckets+bi)*8) }
	chainNode := func(vi, bi, k int) mem.Addr {
		idx := mix(uint64(vi)<<22|uint64(bi)<<12|uint64(k)) % uint64(v*v/2)
		return chainPool + mem.Addr(int(idx)*mstHashNodeBytes)
	}

	inTree := make([]bool, v)
	inTree[0] = true
	current := 0

	steps := sz.steps
	if steps > v-1 {
		steps = v - 1
	}
	for added := 1; added <= steps; added++ {
		best, bestW := -1, uint64(1<<63)
		// Olden hashes the key — the vertex just inserted — so the
		// bucket index is the same for every table this step.
		bi := int(mix(uint64(current)*2654435761) % uint64(buckets))
		// Scan every remaining vertex; for each, look up the weight
		// of the edge to the inserted vertex.
		for u := 0; u < v; u++ {
			if inTree[u] {
				continue
			}
			// Touch the vertex record (mindist, closest).
			b.Load(vertAt(u))
			// Bucket head, then a dependent chain-prefix walk. The
			// prefix length is a property of the chain (where keys
			// sit in it), so a bucket revisit replays the walk.
			b.LoadDep(bucketAt(u, bi))
			walk := 1 + int(mix(uint64(u)<<16|uint64(bi))%5)
			for k := 0; k < walk; k++ {
				b.LoadDep(chainNode(u, bi, k))
				b.Work(5)
			}
			wgt := mix(uint64(u)<<20^uint64(current)) >> 16
			if wgt < bestW {
				bestW = wgt
				best = u
			}
			// Update the vertex's mindist record.
			b.Store(vertAt(u))
			b.Work(5)
		}
		if best < 0 {
			break
		}
		inTree[best] = true
		current = best
	}
}
