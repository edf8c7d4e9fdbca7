package workload

import "ulmt/internal/mem"

// sparse models SparseBench GMRES with compressed-row storage: a
// restarted GMRES solve whose inner loop is a sparse matrix-vector
// product over a *scattered* column structure (unlike CG's band)
// followed by Arnoldi orthogonalization against the Krylov basis.
//
// The basis vectors are deliberately allocated at multiples of the
// L2 way size, so corresponding elements of different vectors map to
// the same cache sets. That reproduces the conflict behavior the
// paper calls out for Sparse in Fig 9: many remaining NonPrefMisses
// and prefetches killed by conflicts.
type sparse struct{}

func init() { register(sparse{}) }

func (sparse) Name() string { return "Sparse" }

func (sparse) Description() string {
	return "GMRES/CRS: scattered-column MVM + conflicting Krylov-basis sweeps"
}

type sparseSize struct {
	n        int // unknowns
	nnz      int // nonzeros per row
	restarts int
	m        int // Krylov subspace dimension
}

func (sparse) size(s Scale) sparseSize {
	switch s {
	case ScaleTiny:
		return sparseSize{n: 4 << 10, nnz: 8, restarts: 1, m: 4}
	case ScaleSmall:
		return sparseSize{n: 8 << 10, nnz: 10, restarts: 1, m: 5}
	case ScaleLarge:
		return sparseSize{n: 16 << 10, nnz: 12, restarts: 3, m: 6}
	default:
		return sparseSize{n: 8 << 10, nnz: 12, restarts: 2, m: 6}
	}
}

func (w sparse) Generate(s Scale) []Op { return generate(s, w.build) }

func (w sparse) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0x59A25E)

	const f64 = 8
	const i32 = 4
	n, nnz := sz.n, sz.nnz

	val := b.Alloc(n * nnz * f64)
	col := b.Alloc(n * nnz * i32)

	// Krylov basis: m+1 vectors, each aligned to the L2 way size
	// (512 KB / 4 ways = 128 KB) so that element i of every vector
	// contends for the same set.
	const waySize = 128 << 10
	basis := make([]mem.Addr, sz.m+1)
	for i := range basis {
		basis[i] = b.AllocAligned(n*f64, waySize)
	}

	// Scattered column structure: uniform over all rows — no band,
	// no sequential gift.
	cols := make([]int32, n*nnz)
	for i := range cols {
		cols[i] = int32(r.intn(n))
	}

	for restart := 0; restart < sz.restarts; restart++ {
		for j := 0; j < sz.m; j++ {
			src, dst := basis[j], basis[j+1]
			// w = A * v_j : CRS product with scattered gathers.
			for i := 0; i < n; i++ {
				for k := 0; k < nnz; k++ {
					e := i*nnz + k
					b.Load(val + mem.Addr(e*f64))
					b.Load(col + mem.Addr(e*i32))
					b.LoadDep(src + mem.Addr(int(cols[e])*f64))
					b.Work(5)
				}
				b.Store(dst + mem.Addr(i*f64))
			}
			// Arnoldi: orthogonalize w against v_0..v_j. Each pass
			// is two sequential streams (w and v_k) whose matching
			// offsets collide in the L2 because of the alignment.
			for k := 0; k <= j; k++ {
				vk := basis[k]
				// dot(w, v_k) then w -= h*v_k, fused: 16-byte steps
				// as an unrolled implementation would stride.
				for i := 0; i < n; i += 2 {
					b.Load(dst + mem.Addr(i*f64))
					b.Load(vk + mem.Addr(i*f64))
					b.Store(dst + mem.Addr(i*f64))
					b.Work(7)
				}
			}
		}
	}
}
