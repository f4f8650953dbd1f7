package bench

import (
	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

// The baselines the paper measures its pipeline against, run in place on x
// (row-major, slowest extent first, unnormalized, direction sign) by a pool
// of workers goroutines over fft1d plans. Neither overlaps data movement
// with compute.

// Pencil2D is the pencil-pencil decomposition of an n×m matrix: row FFTs in
// place, then each column gathered at stride m, transformed and scattered
// back — the cache-hostile access pattern the paper ascribes to MKL/FFTW
// (§II-D).
func Pencil2D(x []complex128, n, m, sign, workers int) {
	rows, cols := fft1d.NewPlan(m), fft1d.NewPlan(n)
	parallelFor(workers, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			rows.InPlace(x[r*m:(r+1)*m], sign)
		}
	})
	parallelFor(workers, m, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			cols.Strided(x, c, m, sign)
		}
	})
}

// Pencil3D is the pencil-pencil-pencil decomposition of a k×n×m cube: every
// stage reads and writes the whole cube, the y stage at stride m within
// slabs and the z stage at stride n·m across the cube.
func Pencil3D(x []complex128, k, n, m, sign, workers int) {
	planM, planN := fft1d.NewPlan(m), fft1d.NewPlan(n)
	parallelFor(workers, k*n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			planM.InPlace(x[r*m:(r+1)*m], sign)
		}
	})
	parallelFor(workers, k, func(lo, hi int) {
		for z := lo; z < hi; z++ {
			planN.InPlaceLanes(x[z*n*m:(z+1)*n*m], m, sign)
		}
	})
	zStage(x, k, n*m, sign, workers)
}

// Slab3D is the slab-pencil decomposition of a k×n×m cube (§II-B): the x
// and y stages fused per z-slab — one pass over each slab, which stays
// cache resident on big-LLC machines — then the strided z stage, so the
// cube makes two main-memory round trips instead of three.
func Slab3D(x []complex128, k, n, m, sign, workers int) {
	planM, planN := fft1d.NewPlan(m), fft1d.NewPlan(n)
	parallelFor(workers, k, func(lo, hi int) {
		for z := lo; z < hi; z++ {
			slab := x[z*n*m : (z+1)*n*m]
			for r := 0; r < n; r++ {
				planM.InPlace(slab[r*m:(r+1)*m], sign)
			}
			planN.InPlaceLanes(slab, m, sign)
		}
	})
	zStage(x, k, n*m, sign, workers)
}

// zStage applies DFT_k ⊗ I_stride to the cube, the workers splitting the
// lanes: each gathers its lane range, transforms it with the lane driver
// and scatters it back.
func zStage(x []complex128, k, stride, sign, workers int) {
	plan := fft1d.NewPlan(k)
	parallelFor(workers, stride, func(lo, hi int) {
		w := hi - lo
		if w <= 0 {
			return
		}
		tmp := make([]complex128, k*w)
		out := make([]complex128, k*w)
		for z := 0; z < k; z++ {
			copy(tmp[z*w:(z+1)*w], x[z*stride+lo:z*stride+hi])
		}
		plan.Lanes(out, tmp, w, sign)
		for z := 0; z < k; z++ {
			copy(x[z*stride+lo:z*stride+hi], out[z*w:(z+1)*w])
		}
	})
}

// parallelFor divides [0, total) among at most workers goroutines, never
// more than there are items.
func parallelFor(workers, total int, f func(lo, hi int)) {
	workers = min(workers, total)
	if workers <= 1 {
		f(0, total)
		return
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			lo, hi := stagegraph.Partition(total, w, workers)
			f(lo, hi)
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
