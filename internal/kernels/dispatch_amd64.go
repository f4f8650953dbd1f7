//go:build amd64 && !purego

package kernels

import (
	"unsafe"

	"repro/internal/cpufeat"
)

// useAVX2 gates the generated codelet tier. It is a variable (not a
// const) only so tests and benchmarks can pin the generic tier; treat it
// as read-only outside SetForceGeneric.
var useAVX2 = cpufeat.X86.HasAVX2 && cpufeat.X86.HasFMA

// hostAVX512 is whether this CPU can run the 512-bit tier of the radix-8
// and fused radix-16 codelets, and useAVX512 whether dispatch takes it. The
// choice is by feature alone; it was measured on Sapphire-Rapids- and
// EPYC-class hosts only.
var (
	hostAVX512 = useAVX2 && cpufeat.X86.HasAVX512F && cpufeat.X86.HasAVX512DQ
	useAVX512  = hostAVX512
)

var forceGeneric bool

// Tier reports which butterfly implementation the dispatched entry
// points currently select: "avx2" or "generic". It names the rounding
// behaviour, not the vector width: the 512-bit radix-8 and radix-16 kernels
// run the AVX2 codelets' operation sequences in every lane and produce their
// bits, so a host that dispatches them still reports "avx2" (cpufeat.Summary
// carries the width).
func Tier() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// SetForceGeneric pins (or unpins) the pure-Go tier at runtime. It
// exists for equivalence tests and tier-labelled benchmarks; it is not
// safe to call concurrently with running transforms.
func SetForceGeneric(on bool) {
	forceGeneric = on
	useAVX2 = !on && cpufeat.X86.HasAVX2 && cpufeat.X86.HasFMA
	useAVX512 = !on && hostAVX512
}

// twiddlePtrs is the argument block handed to the interleaved codelets:
// base pointers of the per-leg twiddle arrays (each len >= m). Field
// order is load-bearing — the assembly indexes the struct by offset.
type twiddlePtrs struct {
	w1, w2, w3, w4, w5, w6, w7 *complex128
}

// twiddle16Ptrs is the fused radix-16 argument block: fifteen twiddle-leg
// base pointers, one per output slot 1..15. Field order is load-bearing.
type twiddle16Ptrs struct {
	w1, w2, w3, w4, w5, w6, w7, w8 *complex128
	w9, w10, w11, w12, w13, w14    *complex128
	w15                            *complex128
}

// Generated by `go run ./internal/kernels/asm` (make asmgen); see
// radix_avx2_amd64.s. Every radix-4/8/16 codelet advances the prefetch
// cursor pf before each butterfly body and returns where it left pf.next
// (Prefetch).
//
//go:noescape
func radix4AVX2(dst, src *complex128, m, s int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr

//go:noescape
func radix4PairsAVX2(dst, src *complex128, m int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr

//go:noescape
func radix8AVX2(dst, src *complex128, m, s int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr

//go:noescape
func radix8PairsAVX2(dst, src *complex128, m int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr

//go:noescape
func radix16AVX2(dst, src *complex128, m, s int, jim float64, tw *twiddle16Ptrs, pf Prefetch) uintptr

//go:noescape
func radix16PairsAVX2(dst, src *complex128, m int, jim float64, tw *twiddle16Ptrs, pf Prefetch) uintptr

// Generated into radix_avx512_amd64.s. Contract beyond the AVX2 kernels':
// s%4 == 0 (strided) or m%4 == 0 (pairs) — there is no narrower tail.
//
//go:noescape
func radix8AVX512(dst, src *complex128, m, s int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr

//go:noescape
func radix8PairsAVX512(dst, src *complex128, m int, jim float64, tw *twiddlePtrs, pf Prefetch) uintptr

//go:noescape
func radix16AVX512(dst, src *complex128, m, s int, jim float64, tw *twiddle16Ptrs, pf Prefetch) uintptr

//go:noescape
func radix16PairsAVX512(dst, src *complex128, m int, jim float64, tw *twiddle16Ptrs, pf Prefetch) uintptr

//go:noescape
func radix4FoldLegAVX2(dst, z0, z1, z2, z3 *complex128, n, leg int, jim float64)

//go:noescape
func radix4FoldNTAVX2(dst, z0, z1, z2, z3 *complex128, blocks, bl16, stride16, leg int, jim float64)

// The cached fold-scatter prefetches the lines pf bytes past each block for
// ownership before storing it (pf = 0: no prefetch); see prefetchDistance.
//
//go:noescape
func radix4FoldScatterAVX2(dst, z0, z1, z2, z3 *complex128, blocks, bl16, stride16, leg int, jim float64, pf int)

// The scaling twins of the two fold-scatter kernels: every output is
// multiplied by complex(scale, 0) on its way out, with fft1d.Scale's bits.
//
//go:noescape
func radix4FoldScaleNTAVX2(dst, z0, z1, z2, z3 *complex128, blocks, bl16, stride16, leg int, jim, scale float64)

//go:noescape
func radix4FoldScatterScaleAVX2(dst, z0, z1, z2, z3 *complex128, blocks, bl16, stride16, leg int, jim, scale float64, pf int)

// ahead is how many blocks past the one it is storing the cached
// fold-scatter prefetches for ownership — the distance of layout's cached
// scatter, which this package cannot import (layout's tests import fft1d,
// which imports kernels). 1 to 8 blocks measured the same (EXPERIMENTS.md
// "Cached stores prefetch for ownership").
const ahead = 4

// prefetchDistance is the cached fold-scatter's prefetch distance in bytes
// for blocks strideBytes apart: ahead blocks, or 0 — no prefetch — on a host
// without PRFCHW.
func prefetchDistance(strideBytes int) int {
	if !cpufeat.X86.HasPRFCHW {
		return 0
	}
	return ahead * strideBytes
}

func jimFor(sign int) float64 {
	if sign == Forward {
		return -1
	}
	return 1
}

// Radix4Step performs one Stockham DIF radix-4 stage; see
// Radix4StepGeneric for the contract. On this build it dispatches to the
// AVX2/FMA codelet when available, with the s==1 (final-stage)
// specialisation that processes butterfly pairs from contiguous memory.
func Radix4Step(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	radix4Step(dst, src, m, s, sign, &tw, nil)
}

// radix4Step is Radix4Step advancing the prefetch cursor pf (nil: none).
func radix4Step(dst, src []complex128, m, s, sign int, tw *StageTwiddles, pf *Prefetch) {
	if stepWidth(4, m, s) == 0 || len(dst) < 4*m*s || len(src) < 4*m*s || len(tw.W1) < m {
		Radix4StepGeneric(dst, src, m, s, sign, *tw)
		return
	}
	tp := twiddlePtrs{w1: &tw.W1[0], w2: &tw.W2[0], w3: &tw.W3[0]}
	if s == 1 {
		pf.advance(radix4PairsAVX2(&dst[0], &src[0], m, jimFor(sign), &tp, pf.cursor()))
		return
	}
	pf.advance(radix4AVX2(&dst[0], &src[0], m, s, jimFor(sign), &tp, pf.cursor()))
}

// Radix8Step performs one Stockham DIF radix-8 stage; see
// Radix8StepGeneric for the contract. Like Radix16Step it picks the vector
// width per call (stepWidth); the t_k the 256-bit tier spills to its frame
// stay in Z16–Z19 in the 512-bit one. Both tiers produce the same bits.
func Radix8Step(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	radix8Step(dst, src, m, s, sign, &tw, nil)
}

// radix8Step is Radix8Step advancing the prefetch cursor pf (nil: none).
func radix8Step(dst, src []complex128, m, s, sign int, tw *StageTwiddles, pf *Prefetch) {
	width := stepWidth(8, m, s)
	if width == 0 || len(dst) < 8*m*s || len(src) < 8*m*s || len(tw.W1) < m {
		Radix8StepGeneric(dst, src, m, s, sign, *tw)
		return
	}
	tp := tw.ptrs8()
	c, jim := pf.cursor(), jimFor(sign)
	switch {
	case width == 512 && s == 1:
		pf.advance(radix8PairsAVX512(&dst[0], &src[0], m, jim, &tp, c))
	case width == 512:
		pf.advance(radix8AVX512(&dst[0], &src[0], m, s, jim, &tp, c))
	case s == 1:
		pf.advance(radix8PairsAVX2(&dst[0], &src[0], m, jim, &tp, c))
	default:
		pf.advance(radix8AVX2(&dst[0], &src[0], m, s, jim, &tp, c))
	}
}

// ptrs8 is the argument block of the radix-8 assembly kernels; every leg
// must be non-empty.
func (st *StageTwiddles) ptrs8() twiddlePtrs {
	return twiddlePtrs{
		w1: &st.W1[0], w2: &st.W2[0], w3: &st.W3[0], w4: &st.W4[0],
		w5: &st.W5[0], w6: &st.W6[0], w7: &st.W7[0],
	}
}

// has16Legs reports whether every one of W1…W15 holds the m entries both
// assembly tiers read from it.
func (st *StageTwiddles) has16Legs(m int) bool {
	return len(st.W1) >= m && len(st.W2) >= m && len(st.W3) >= m && len(st.W4) >= m &&
		len(st.W5) >= m && len(st.W6) >= m && len(st.W7) >= m && len(st.W8) >= m &&
		len(st.W9) >= m && len(st.W10) >= m && len(st.W11) >= m && len(st.W12) >= m &&
		len(st.W13) >= m && len(st.W14) >= m && len(st.W15) >= m
}

// ptrs16 is the argument block of the radix-16 assembly kernels; every leg
// must be non-empty (has16Legs with m ≥ 1).
func (st *StageTwiddles) ptrs16() twiddle16Ptrs {
	return twiddle16Ptrs{
		w1: &st.W1[0], w2: &st.W2[0], w3: &st.W3[0], w4: &st.W4[0],
		w5: &st.W5[0], w6: &st.W6[0], w7: &st.W7[0], w8: &st.W8[0],
		w9: &st.W9[0], w10: &st.W10[0], w11: &st.W11[0], w12: &st.W12[0],
		w13: &st.W13[0], w14: &st.W14[0], w15: &st.W15[0],
	}
}

// stepWidth is the vector width in bits of the kernel Radix{4,8,16}Step
// runs a radix-r (m, s) stage on: 512 where the host has AVX-512F/DQ, r is 8
// or 16 and the shape fills whole ZMM words (four q elements per iteration
// when strided, four butterflies when s == 1), 256 for every other shape on
// an AVX2 host, 0 for the pure-Go tier and for m or s below one.
func stepWidth(r, m, s int) int {
	switch {
	case !useAVX2 || m <= 0 || s <= 0:
		return 0
	case r != 4 && useAVX512 && (s == 1 && m%4 == 0 || s != 1 && s%4 == 0):
		return 512
	}
	return 256
}

// Bodies reports how many butterfly bodies the codelet a radix-r (m, s)
// stage dispatches to runs — the times it advances a prefetch cursor — or 0
// where the stage runs in Go (radix 2, the pure-Go tier). Bodies take two q
// elements (or, when s == 1, two butterflies) at 256 bits, one in the odd
// tail, and four at 512 bits, which has no tail. It assumes the stage's
// slices and twiddles are whole, as every plan's are.
func Bodies(r, m, s int) int {
	w := stepWidth(r, m, s)
	if r == 2 || w == 0 {
		return 0
	}
	per := w / 128
	if s == 1 {
		return m/per + m%per
	}
	return m * (s/per + s%per)
}

// Radix16Step performs one fused radix-16 stage (two radix-4 rank stages in
// registers); see Radix16StepGeneric for the contract. The codelet keeps the
// intermediate rank in registers — spilled to a frame by the 256-bit tier,
// parked in Z16–Z31 by the 512-bit one — so the pencil is swept once where
// the two-stage chain swept it twice. Both tiers produce the same bits.
func Radix16Step(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	radix16Step(dst, src, m, s, sign, &tw, nil)
}

// radix16Step is Radix16Step advancing the prefetch cursor pf (nil: none).
func radix16Step(dst, src []complex128, m, s, sign int, tw *StageTwiddles, pf *Prefetch) {
	width := stepWidth(16, m, s)
	if width == 0 || len(dst) < 16*m*s || len(src) < 16*m*s || !tw.has16Legs(m) {
		Radix16StepGeneric(dst, src, m, s, sign, *tw)
		return
	}
	tp := tw.ptrs16()
	c, jim := pf.cursor(), jimFor(sign)
	switch {
	case width == 512 && s == 1:
		pf.advance(radix16PairsAVX512(&dst[0], &src[0], m, jim, &tp, c))
	case width == 512:
		pf.advance(radix16AVX512(&dst[0], &src[0], m, s, jim, &tp, c))
	case s == 1:
		pf.advance(radix16PairsAVX2(&dst[0], &src[0], m, jim, &tp, c))
	default:
		pf.advance(radix16AVX2(&dst[0], &src[0], m, s, jim, &tp, c))
	}
}

// Radix4FoldLeg computes one leg of the trailing trivial-twiddle radix-4
// butterfly; see Radix4FoldLegGeneric for the contract. This runs on the
// store leg of every fold-enabled stage, so it must keep pace with the
// non-temporal scatter it feeds — the codelet streams the four source
// blocks with two complexes per iteration.
func Radix4FoldLeg(dst, z0, z1, z2, z3 []complex128, leg, sign int) {
	n := len(dst)
	if !useAVX2 || n == 0 || len(z0) < n || len(z1) < n || len(z2) < n || len(z3) < n {
		Radix4FoldLegGeneric(dst, z0, z1, z2, z3, leg, sign)
		return
	}
	radix4FoldLegAVX2(&dst[0], &z0[0], &z1[0], &z2[0], &z3[0], n, leg, jimFor(sign))
}

// Radix4FoldScatter fuses Radix4FoldLeg with a strided block scatter:
// output block i (blockLen complexes, read from the four contiguous source
// streams at offset i·blockLen) is written straight to dst[d0+i·stride],
// with no scratch round trip between the fold and the scatter. A non-zero
// scale multiplies every output on the way out — bitwise the fold followed
// by fft1d.Scale over the blocks. The kernel prefetches its destination
// blocks for ownership prefetchDistance ahead, so their read-for-ownership
// misses overlap instead of queueing one behind the next. Returns
// false — having written nothing — when the accelerated tier is off,
// blockLen is odd (the codelet moves whole YMM words) or the pattern leaves
// dst; the caller then takes the scratch-fold + scatter path.
func Radix4FoldScatter(dst, z0, z1, z2, z3 []complex128, blocks, blockLen, d0, stride, leg, sign int, scale float64) bool {
	if blockLen%2 != 0 || !foldScatterFits(dst, z0, z1, z2, z3, blocks, blockLen, d0, stride) {
		return false
	}
	pf := prefetchDistance(stride * 16)
	if scale != 0 {
		radix4FoldScatterScaleAVX2(&dst[d0], &z0[0], &z1[0], &z2[0], &z3[0],
			blocks, blockLen*16, stride*16, leg, jimFor(sign), scale, pf)
		return true
	}
	radix4FoldScatterAVX2(&dst[d0], &z0[0], &z1[0], &z2[0], &z3[0],
		blocks, blockLen*16, stride*16, leg, jimFor(sign), pf)
	return true
}

// Radix4FoldScatterNT is Radix4FoldScatter with non-temporal stores: the
// blocks are streamed to dst without touching the cache. It additionally
// declines patterns that are not whole 64-byte lines on line boundaries
// (blockLen, stride and d0 multiples of four complexes, line-aligned dst:
// the same rule, for the same reason, as layout.ScatterBlocksNT).
func Radix4FoldScatterNT(dst, z0, z1, z2, z3 []complex128, blocks, blockLen, d0, stride, leg, sign int, scale float64) bool {
	if blockLen%4 != 0 || stride%4 != 0 || d0%4 != 0 ||
		!foldScatterFits(dst, z0, z1, z2, z3, blocks, blockLen, d0, stride) ||
		uintptr(unsafe.Pointer(&dst[0]))%64 != 0 {
		return false
	}
	if scale != 0 {
		radix4FoldScaleNTAVX2(&dst[d0], &z0[0], &z1[0], &z2[0], &z3[0],
			blocks, blockLen*16, stride*16, leg, jimFor(sign), scale)
		return true
	}
	radix4FoldNTAVX2(&dst[d0], &z0[0], &z1[0], &z2[0], &z3[0],
		blocks, blockLen*16, stride*16, leg, jimFor(sign))
	return true
}

// foldScatterFits is the part of the fused fold-scatter contract both store
// flavours share: the codelet tier is on, the four sources hold the run and
// every destination block lies inside dst.
func foldScatterFits(dst, z0, z1, z2, z3 []complex128, blocks, blockLen, d0, stride int) bool {
	if !useAVX2 || blocks <= 0 || blockLen <= 0 || d0 < 0 || stride < 0 {
		return false
	}
	n := blocks * blockLen
	return len(z0) >= n && len(z1) >= n && len(z2) >= n && len(z3) >= n &&
		d0+(blocks-1)*stride+blockLen <= len(dst)
}

// The sink codelets (kernels.Sink), generated beside the codelets whose
// bodies they run: the strided ones take the leg stride ls = (s/μ)·js, the
// block bytes bb = μ·16 and the jump js − bb between blocks, all in bytes;
// the pairs ones the byte offset of each leg. The Scale twins multiply every
// output by scale on its way out; the others ignore it. None fences.
//
//go:noescape
func radix8SinkAVX2(dst, src *complex128, s int, jim float64, tw *twiddlePtrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix8SinkScaleAVX2(dst, src *complex128, s int, jim float64, tw *twiddlePtrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix16SinkAVX2(dst, src *complex128, s int, jim float64, tw *twiddle16Ptrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix16SinkScaleAVX2(dst, src *complex128, s int, jim float64, tw *twiddle16Ptrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix8SinkAVX512(dst, src *complex128, s int, jim float64, tw *twiddlePtrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix8SinkScaleAVX512(dst, src *complex128, s int, jim float64, tw *twiddlePtrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix16SinkAVX512(dst, src *complex128, s int, jim float64, tw *twiddle16Ptrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix16SinkScaleAVX512(dst, src *complex128, s int, jim float64, tw *twiddle16Ptrs, ls, bb, jump int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix8SinkPairsAVX2(dst, src *complex128, jim float64, tw *twiddlePtrs, offs *[16]int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix8SinkPairsScaleAVX2(dst, src *complex128, jim float64, tw *twiddlePtrs, offs *[16]int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix16SinkPairsAVX2(dst, src *complex128, jim float64, tw *twiddle16Ptrs, offs *[16]int, scale float64, pf Prefetch) uintptr

//go:noescape
func radix16SinkPairsScaleAVX2(dst, src *complex128, jim float64, tw *twiddle16Ptrs, offs *[16]int, scale float64, pf Prefetch) uintptr

// sinkTier reports whether the codelet tier runs a radix-r (m, s) stage, so
// that its sink codelet can (Sink.Takes has checked the shape).
func sinkTier(r, m, s int) bool { return stepWidth(r, m, s) != 0 }

// lineAligned reports whether element off of dst starts a cache line.
func lineAligned(dst []complex128, off int) bool {
	return (uintptr(unsafe.Pointer(&dst[0]))+uintptr(off)*16)%sinkLine == 0
}

// sinkTwiddles reports whether tw holds the one entry (m = 1) of every leg a
// radix-r sink codelet reads.
func sinkTwiddles(r int, tw *StageTwiddles) bool {
	if r == 16 {
		return tw.has16Legs(1)
	}
	return len(tw.W1) >= 1 && len(tw.W2) >= 1 && len(tw.W3) >= 1 && len(tw.W4) >= 1 &&
		len(tw.W5) >= 1 && len(tw.W6) >= 1 && len(tw.W7) >= 1
}

// sinkPencil runs one pencil's sink codelet into sk.Dst from element off,
// at the width Radix{8,16}Step would take; SinkStep has checked the
// contract.
func sinkPencil(r int, src []complex128, s, sign int, tw *StageTwiddles, pf *Prefetch, sk *Sink, off int) {
	dst, c, jim, sc := &sk.Dst[off], pf.cursor(), jimFor(sign), sk.Scale
	bl, js := sk.BlockLen, sk.JStride*16
	var next uintptr
	if s == 1 {
		var offs [16]int
		for k := 0; k < r; k++ {
			offs[k] = k/bl*js + k%bl*16
		}
		switch {
		case r == 16 && sc != 0:
			tp := tw.ptrs16()
			next = radix16SinkPairsScaleAVX2(dst, &src[0], jim, &tp, &offs, sc, c)
		case r == 16:
			tp := tw.ptrs16()
			next = radix16SinkPairsAVX2(dst, &src[0], jim, &tp, &offs, sc, c)
		case sc != 0:
			tp := tw.ptrs8()
			next = radix8SinkPairsScaleAVX2(dst, &src[0], jim, &tp, &offs, sc, c)
		default:
			tp := tw.ptrs8()
			next = radix8SinkPairsAVX2(dst, &src[0], jim, &tp, &offs, sc, c)
		}
		pf.advance(next)
		return
	}
	ls, bb := s/bl*js, bl*16
	wide := stepWidth(r, 1, s) == 512
	if r == 16 {
		tp := tw.ptrs16()
		switch {
		case wide && sc != 0:
			next = radix16SinkScaleAVX512(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		case wide:
			next = radix16SinkAVX512(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		case sc != 0:
			next = radix16SinkScaleAVX2(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		default:
			next = radix16SinkAVX2(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		}
	} else {
		tp := tw.ptrs8()
		switch {
		case wide && sc != 0:
			next = radix8SinkScaleAVX512(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		case wide:
			next = radix8SinkAVX512(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		case sc != 0:
			next = radix8SinkScaleAVX2(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		default:
			next = radix8SinkAVX2(dst, &src[0], s, jim, &tp, ls, bb, js-bb, sc, c)
		}
	}
	pf.advance(next)
}
