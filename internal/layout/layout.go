// Package layout provides the data-reshaping primitives of the paper's FFT
// stages: 2D transposes, 3D cube rotations (Fig. 5), their cacheline-blocked
// variants (the ⊗ I_μ forms of §III-A), and the complex-interleaved ↔
// block-interleaved format changes of §IV-A.
//
// The blocked variants move whole μ-element cachelines, which is what lets
// the paper's store matrices W_{b,i} write at cacheline granularity with
// non-temporal stores instead of scattering single elements.
//
// The blocked primitives come in up to three implementation tiers:
//
//   - on amd64 with AVX, generated assembly (`make asmgen`) for the block
//     stores: the cached scatter under ScatterBlocks and ScatterBlocksPairs
//     (even block lengths), which prefetches its destination lines for
//     ownership a few blocks ahead, and the streaming ScatterBlocksNT and
//     GatherBlocksNT;
//   - register-blocked Go micro-kernels for the cacheline sizes the paper
//     evaluates (μ = 4, one 64 B line of complex128, and μ = 8): the block
//     copy is fully unrolled, row strides are hoisted out of the inner loop,
//     and every inner slice is re-sliced to a compile-time length so the
//     compiler eliminates all interior bounds checks. They are the purego
//     tier and the property tests' oracle for the generated one;
//   - *Generic fallbacks (TransposeBlockedGeneric, …) handling any μ with
//     plain copy loops. These are also the correctness references the
//     property tests pit the specialized kernels against.
//
// ScatterBlocks is the shared store micro-kernel underneath all blocked
// rotations: it writes `blocks` cacheline blocks taken contiguously from src
// at a fixed destination stride — the inner loop of every W write matrix.
// The stagegraph store path calls it directly when a Rotation declares its
// affine stride, so the whole hot store path runs through the kernels above.
// GatherBlocks is the same movement walked destination-first (one contiguous
// run per block index across a pipeline block's units), the order the
// streaming store leg uses.
//
// Evict, beside StoreFence, is the one primitive that moves no data: it
// flushes a slice's cache lines from every level (CLFLUSHOPT or CLFLUSH, on
// amd64 only), so the DRAM copy probe of internal/stream reads memory.
//
// All functions are plain sequential loops; parallelization happens a level
// up (internal/stagegraph runs a stage's blocks on lanes, one per core).
package layout

import "fmt"

// ScatterBlocks writes `blocks` consecutive blockLen-element blocks of src
// to dst at a fixed stride: block j (src[j·blockLen : (j+1)·blockLen]) lands
// at dst[dstOff + j·dstStride]. This is the store inner loop of every
// blocked rotation (the paper's W write matrices at cacheline granularity).
// On amd64 with AVX an even blockLen runs the generated cached scatter, which
// prefetches its destination lines for ownership a few blocks ahead;
// every other pattern, and the purego build, runs scatterBlocksGo.
func ScatterBlocks(dst, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	if !scatterKernel(dst, src, blocks, blockLen, dstOff, dstStride) {
		scatterBlocksGo(dst, src, blocks, blockLen, dstOff, dstStride)
	}
}

// scatterBlocksGo is ScatterBlocks in Go, the purego tier and the property
// tests' oracle for the generated one: blockLen 4 and 8 take fully unrolled
// register paths, every other length a copy per block.
func scatterBlocksGo(dst, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	switch blockLen {
	case 4:
		d := dstOff
		for j := 0; j < blocks; j++ {
			s := src[j*4 : j*4+4 : j*4+4]
			t := dst[d : d+4 : d+4]
			t[0], t[1], t[2], t[3] = s[0], s[1], s[2], s[3]
			d += dstStride
		}
	case 8:
		d := dstOff
		for j := 0; j < blocks; j++ {
			s := src[j*8 : j*8+8 : j*8+8]
			t := dst[d : d+8 : d+8]
			t[0], t[1], t[2], t[3] = s[0], s[1], s[2], s[3]
			t[4], t[5], t[6], t[7] = s[4], s[5], s[6], s[7]
			d += dstStride
		}
	default:
		d := dstOff
		for j := 0; j < blocks; j++ {
			copy(dst[d:d+blockLen], src[j*blockLen:(j+1)*blockLen])
			d += dstStride
		}
	}
}

// GatherBlocks is the run-major store: it writes `runs` destination runs
// dstStride elements apart, run r being the concatenation of block r of each
// of `units` source units unitLen elements apart —
// dst[r·dstStride + u·blockLen + i] = src[u·unitLen + r·blockLen + i]. It
// writes what one ScatterBlocks call per unit (blocks = runs, dstOff =
// u·blockLen) writes, in the order that makes every destination run one
// contiguous stream of units·blockLen elements. A non-zero scale multiplies
// every element on the way out, bitwise fft1d.Scale of the destination
// afterwards (it is the same `x *= complex(s, 0)` over each finished run).
func GatherBlocks(dst, src []complex128, runs, units, blockLen, unitLen, dstStride int, scale float64) {
	cs := complex(scale, 0)
	for r := 0; r < runs; r++ {
		run := dst[r*dstStride : r*dstStride+units*blockLen]
		for u := 0; u < units; u++ {
			s := r*blockLen + u*unitLen
			copy(run[u*blockLen:(u+1)*blockLen], src[s:s+blockLen])
		}
		if scale != 0 {
			for i := range run {
				run[i] *= cs
			}
		}
	}
}

// TransposeBlocked transposes a rows×cols matrix of μ-element blocks:
// dst block (j, i) = src block (i, j). In SPL this is L^{rows·cols} ⊗ I_μ,
// the blocked transposition the paper uses after each 2D FFT stage. Each
// source row scatters whole cacheline blocks at a fixed destination stride
// through ScatterBlocks, so every even μ runs the generated cached scatter on
// amd64 and μ = 4 and μ = 8 the unrolled register kernels elsewhere.
func TransposeBlocked(dst, src []complex128, rows, cols, mu int) {
	if len(dst) != rows*cols*mu || len(src) != rows*cols*mu {
		panic(fmt.Sprintf("layout: TransposeBlocked %dx%dx%d on dst=%d src=%d",
			rows, cols, mu, len(dst), len(src)))
	}
	rowStride := rows * mu
	rowLen := cols * mu
	for i := 0; i < rows; i++ {
		ScatterBlocks(dst, src[i*rowLen:(i+1)*rowLen], cols, mu, i*mu, rowStride)
	}
}

// TransposeBlockedGeneric is the tiled reference implementation of
// TransposeBlocked: per-block copy calls with recomputed index arithmetic.
// It is kept as the property-test oracle and ablation baseline for the
// register-blocked path.
func TransposeBlockedGeneric(dst, src []complex128, rows, cols, mu int) {
	if len(dst) != rows*cols*mu || len(src) != rows*cols*mu {
		panic(fmt.Sprintf("layout: TransposeBlockedGeneric %dx%dx%d on dst=%d src=%d",
			rows, cols, mu, len(dst), len(src)))
	}
	const tile = 16
	for ii := 0; ii < rows; ii += tile {
		iMax := min(ii+tile, rows)
		for jj := 0; jj < cols; jj += tile {
			jMax := min(jj+tile, cols)
			for i := ii; i < iMax; i++ {
				for j := jj; j < jMax; j++ {
					copy(dst[(j*rows+i)*mu:(j*rows+i)*mu+mu],
						src[(i*cols+j)*mu:(i*cols+j)*mu+mu])
				}
			}
		}
	}
}

// Rotate3DBlocked applies K_{m/μ}^{k,n} ⊗ I_μ: the rotation at μ-element
// cacheline granularity. src is a k×n×mb cube of μ-blocks (mb = m/μ); dst
// receives the mb×k×n cube of blocks:
// dst block (xb, z, y) = src block (z, y, xb).
// Every source pencil scatters its blocks at the fixed stride k·n·μ through
// ScatterBlocks, so it runs the same store kernels as TransposeBlocked.
func Rotate3DBlocked(dst, src []complex128, k, n, mb, mu int) {
	if len(dst) != k*n*mb*mu || len(src) != k*n*mb*mu {
		panic(fmt.Sprintf("layout: Rotate3DBlocked %dx%dx%dx%d on dst=%d src=%d",
			k, n, mb, mu, len(dst), len(src)))
	}
	xStride := k * n * mu
	rowLen := mb * mu
	for z := 0; z < k; z++ {
		for y := 0; y < n; y++ {
			g := z*n + y
			ScatterBlocks(dst, src[g*rowLen:(g+1)*rowLen], mb, mu, g*mu, xStride)
		}
	}
}

// Rotate3DBlockedGeneric is the reference implementation of Rotate3DBlocked
// (per-block copy calls), kept as the property-test oracle and ablation
// baseline.
func Rotate3DBlockedGeneric(dst, src []complex128, k, n, mb, mu int) {
	if len(dst) != k*n*mb*mu || len(src) != k*n*mb*mu {
		panic(fmt.Sprintf("layout: Rotate3DBlockedGeneric %dx%dx%dx%d on dst=%d src=%d",
			k, n, mb, mu, len(dst), len(src)))
	}
	for z := 0; z < k; z++ {
		for y := 0; y < n; y++ {
			srcRow := (z*n + y) * mb * mu
			for xb := 0; xb < mb; xb++ {
				d := ((xb*k+z)*n + y) * mu
				copy(dst[d:d+mu], src[srcRow+xb*mu:srcRow+xb*mu+mu])
			}
		}
	}
}
