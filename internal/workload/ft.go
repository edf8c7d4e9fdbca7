package workload

import "ulmt/internal/mem"

// ft models NAS FT class S: a 3D fast Fourier transform. Each
// iteration runs butterfly passes along the x, y and z dimensions of
// a complex grid. The x passes are unit stride; the y and z passes
// stride by nx and nx*ny complex elements — far larger than a cache
// line — so a unit-stride sequential prefetcher misses them entirely,
// while the pass order repeats exactly every iteration, which is meat
// for a correlation table.
type ft struct{}

func init() { register(ft{}) }

func (ft) Name() string { return "FT" }

func (ft) Description() string {
	return "3D FFT butterfly passes; exact-repeat large-stride traversals"
}

type ftSize struct {
	nx, ny, nz int
	iters      int
}

func (ft) size(s Scale) ftSize {
	switch s {
	case ScaleTiny:
		return ftSize{nx: 32, ny: 16, nz: 16, iters: 1}
	case ScaleSmall:
		return ftSize{nx: 64, ny: 32, nz: 16, iters: 2}
	case ScaleLarge:
		return ftSize{nx: 64, ny: 64, nz: 32, iters: 3}
	default:
		return ftSize{nx: 64, ny: 32, nz: 32, iters: 2}
	}
}

func (w ft) Generate(s Scale) []Op { return generate(s, w.build) }

func (w ft) build(s Scale, b *Builder) {
	sz := w.size(s)

	const c128 = 16 // complex element
	nx, ny, nz := sz.nx, sz.ny, sz.nz
	n := nx * ny * nz

	grid := b.Alloc(n * c128)
	twid := b.Alloc((nx + ny + nz) * c128)

	at := func(x, y, z int) mem.Addr {
		return grid + mem.Addr(((z*ny+y)*nx+x)*c128)
	}

	// butterfly runs one radix-2-style pass across a 1D line of the
	// grid at the given stride pattern: pairs (i, i+half) are loaded,
	// combined with a twiddle factor, and stored back.
	butterfly := func(addr func(i int) mem.Addr, length int, twbase mem.Addr) {
		half := length / 2
		for i := 0; i < half; i++ {
			b.Load(addr(i))
			b.Load(addr(i + half))
			b.Load(twbase + mem.Addr(i*c128))
			b.Work(12) // complex multiply-add
			b.Store(addr(i))
			b.Store(addr(i + half))
		}
	}

	for it := 0; it < sz.iters; it++ {
		// x-dimension passes: unit stride within each row.
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				butterfly(func(i int) mem.Addr { return at(i, y, z) }, nx, twid)
			}
		}
		// y-dimension passes: stride nx elements.
		for z := 0; z < nz; z++ {
			for x := 0; x < nx; x += 2 { // step 2: adjacent x share lines
				butterfly(func(i int) mem.Addr { return at(x, i, z) }, ny, twid+mem.Addr(nx*c128))
			}
		}
		// z-dimension passes: stride nx*ny elements.
		for y := 0; y < ny; y += 2 {
			for x := 0; x < nx; x += 2 {
				butterfly(func(i int) mem.Addr { return at(x, y, i) }, nz, twid+mem.Addr((nx+ny)*c128))
			}
		}
		// Evolve step: one sequential sweep applying the exponent
		// factors, as in NAS FT between transforms.
		for i := 0; i < n; i += 4 {
			b.Load(grid + mem.Addr(i*c128))
			b.Store(grid + mem.Addr(i*c128))
			b.Work(8)
		}
	}
}
