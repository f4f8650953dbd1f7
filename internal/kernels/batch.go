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

// BatchRadix2Step applies one Stockham radix-2 stage to `pencils`
// independent pencils. m and s are per-pencil stage parameters as in
// Radix2Step; stride is the per-pencil element count (2·m·s).
func BatchRadix2Step(dst, src []complex128, pencils, stride, m, s int, tw StageTwiddles) {
	for c := 0; c < pencils; c++ {
		o := c * stride
		Radix2Step(dst[o:o+stride], src[o:o+stride], m, s, tw)
	}
}

// BatchRadix4Step applies one Stockham radix-4 stage to `pencils`
// independent pencils of stride elements each (stride = 4·m·s).
func BatchRadix4Step(dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles) {
	for c := 0; c < pencils; c++ {
		o := c * stride
		Radix4Step(dst[o:o+stride], src[o:o+stride], m, s, sign, tw)
	}
}

// BatchRadix8Step applies one Stockham radix-8 stage to `pencils`
// independent pencils of stride elements each (stride = 8·m·s).
func BatchRadix8Step(dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles) {
	for c := 0; c < pencils; c++ {
		o := c * stride
		Radix8Step(dst[o:o+stride], src[o:o+stride], m, s, sign, tw)
	}
}

// BatchRadix16Step applies one fused radix-16 stage (two radix-4 rank stages
// in registers) to `pencils` independent pencils of stride elements each
// (stride = 16·m·s).
func BatchRadix16Step(dst, src []complex128, pencils, stride, m, s, sign int, tw StageTwiddles) {
	for c := 0; c < pencils; c++ {
		o := c * stride
		Radix16Step(dst[o:o+stride], src[o:o+stride], m, s, sign, tw)
	}
}
