package kernels

// Batched Stockham sweeps. A buffer half holds many contiguous pencils of
// the same size, and the fft1d batch entry points run them in one of two
// loop orders, chosen by pencil size against the host's L1d. Pencils of a
// quarter of the L1d and more run pencil-major — every butterfly stage of
// pencil 0, then every stage of pencil 1, and so on, each stage a call here
// with pencils = 1 — so a pencil stays in L1 between its stages. Smaller
// pencils run stage-major: one butterfly stage is applied across all
// pencils in the half before the next stage begins, so each stage's twiddle
// table is loaded once per sweep and stays cache-hot while it is reused
// pencils-many times. Both orders make the same kernel calls on every
// pencil, so the bits are the same.
//
// Each pencil occupies `stride` consecutive elements (stride = n·s for a
// DFT_n ⊗ I_s lane group); pencil c of dst/src starts at offset c·stride.

// BatchStep applies one Stockham stage of radix r (2, 4, 8 or fused 16) to
// `pencils` independent pencils of stride elements each (stride = r·m·s),
// with m and s the per-pencil stage parameters of the RadixStep kernels.
// The codelets advance the prefetch cursor pf (nil: none) across the
// pencils; radix 2 runs in Go and ignores it, as does a radix-2 stage's sign.
func BatchStep(r int, dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles, pf *Prefetch) {
	for c := 0; c < pencils; c++ {
		o := c * stride
		d, x := dst[o:o+stride], src[o:o+stride]
		switch r {
		case 16:
			radix16Step(d, x, m, s, sign, &tw, pf)
		case 8:
			radix8Step(d, x, m, s, sign, &tw, pf)
		case 4:
			radix4Step(d, x, m, s, sign, &tw, pf)
		default:
			Radix2Step(d, x, m, s, tw)
		}
	}
}

// BatchRadix4Step is BatchStep at radix 4 with no prefetch cursor.
func BatchRadix4Step(dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles) {
	BatchStep(4, dst, src, pencils, stride, m, s, sign, tw, nil)
}

// BatchRadix8Step is BatchStep at radix 8 with no prefetch cursor.
func BatchRadix8Step(dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles) {
	BatchStep(8, dst, src, pencils, stride, m, s, sign, tw, nil)
}

// BatchRadix16Step is BatchStep at fused radix 16 (two radix-4 rank stages
// in registers) with no prefetch cursor.
func BatchRadix16Step(dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles) {
	BatchStep(16, dst, src, pencils, stride, m, s, sign, tw, nil)
}
