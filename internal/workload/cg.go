package workload

import "ulmt/internal/mem"

// cg models NAS CG class S: conjugate gradient iterations on a
// sparse symmetric matrix in compressed-row storage. CG is the one
// regular application in the suite (§4): its reference stream is
// dominated by many *concurrent* sequential streams — the value
// array, the column-index array, the source/destination vectors —
// plus a near-diagonal gather. A single-stream sequential prefetcher
// is overwhelmed by the interleaving (the effect the CG customization
// of Table 5 exploits), while a multi-stream one predicts nearly all
// of its misses (Fig 5).
type cg struct{}

func init() { register(cg{}) }

func (cg) Name() string { return "CG" }

func (cg) Description() string {
	return "conjugate gradient on a banded sparse matrix (CSR); multi-stream sequential"
}

type cgSize struct {
	n     int // rows
	nnz   int // nonzeros per row
	iters int
}

func (cg) size(s Scale) cgSize {
	switch s {
	case ScaleTiny:
		return cgSize{n: 4 << 10, nnz: 6, iters: 1}
	case ScaleSmall:
		return cgSize{n: 8 << 10, nnz: 8, iters: 2}
	case ScaleLarge:
		return cgSize{n: 32 << 10, nnz: 8, iters: 4}
	default:
		return cgSize{n: 16 << 10, nnz: 8, iters: 3}
	}
}

func (w cg) Generate(s Scale) []Op { return generate(s, w.build) }

func (w cg) build(s Scale, b *Builder) {
	sz := w.size(s)
	r := newRNG(0xC6)

	const f64 = 8
	const i32 = 4
	n, nnz := sz.n, sz.nnz

	val := b.Alloc(n * nnz * f64)
	col := b.Alloc(n * nnz * i32)
	x := b.Alloc(n * f64)
	p := b.Alloc(n * f64)
	q := b.Alloc(n * f64)
	rv := b.Alloc(n * f64)

	// Column structure: a band around the diagonal with a few random
	// long-range entries, like a discretized operator with coupling
	// terms. The structure is fixed across iterations, so the gather
	// pattern repeats exactly.
	cols := make([]int32, n*nnz)
	for i := 0; i < n; i++ {
		for j := 0; j < nnz; j++ {
			var c int
			if j < nnz-2 {
				c = i - (nnz-2)/2 + j // band
				if c < 0 {
					c += n
				}
				if c >= n {
					c -= n
				}
			} else {
				c = r.intn(n) // long-range coupling
			}
			cols[i*nnz+j] = int32(c)
		}
	}

	for it := 0; it < sz.iters; it++ {
		// q = A*p  — the sparse matrix-vector product.
		for i := 0; i < n; i++ {
			for j := 0; j < nnz; j++ {
				k := i*nnz + j
				b.Load(val + mem.Addr(k*f64))
				b.Load(col + mem.Addr(k*i32))
				// The gather depends on the just-loaded index.
				b.LoadDep(p + mem.Addr(int(cols[k])*f64))
				b.Work(9) // multiply-accumulate
			}
			b.Store(q + mem.Addr(i*f64))
		}
		// alpha = rho / (p . q)  — two concurrent sequential streams.
		for i := 0; i < n; i += 2 {
			b.Load(p + mem.Addr(i*f64))
			b.Load(q + mem.Addr(i*f64))
			b.Work(5)
		}
		// x += alpha*p ; r -= alpha*q  — four streams.
		for i := 0; i < n; i += 2 {
			b.Load(x + mem.Addr(i*f64))
			b.Load(p + mem.Addr(i*f64))
			b.Store(x + mem.Addr(i*f64))
			b.Load(rv + mem.Addr(i*f64))
			b.Load(q + mem.Addr(i*f64))
			b.Store(rv + mem.Addr(i*f64))
			b.Work(10)
		}
		// rho' = r . r ; p = r + beta*p  — three streams.
		for i := 0; i < n; i += 2 {
			b.Load(rv + mem.Addr(i*f64))
			b.Load(p + mem.Addr(i*f64))
			b.Store(p + mem.Addr(i*f64))
			b.Work(8)
		}
	}
}
