package layout

// Real-input transforms move their real endpoints through the same blocked
// store machinery as the complex path, viewing a []float64 array as
// pair-packed complex elements: complex element o of the logical array is
// the float pair (dst[2o], dst[2o+1]). Packing two adjacent reals into one
// complex lane is the classic two-for-one trick — an m-point real sequence
// becomes an m/2-point complex sequence — and because a complex128 and a
// float64 pair have identical memory layout, the pack/unpack kernels below
// are pure streaming copies with a type change: 16 B moved per packed
// element, i.e. 8 B per real element, which is exactly what the bandwidth
// accounting records for real loads and stores.
//
// The same implementation tiers as the rest of the package apply: the
// generated cached scatter under ScatterBlocksPairs on amd64, unrolled
// register kernels for the μ = 4 / μ = 8 cacheline sizes, and *Generic
// fallbacks kept as the property-test oracles.

// PackPairs packs n float64 pairs from src into n complex elements:
// dst[j] = complex(src[2j], src[2j+1]). len(src) must be ≥ 2n.
func PackPairs(dst []complex128, src []float64, n int) {
	dst = dst[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		s := src[2*j : 2*j+8 : 2*j+8]
		t := dst[j : j+4 : j+4]
		t[0] = complex(s[0], s[1])
		t[1] = complex(s[2], s[3])
		t[2] = complex(s[4], s[5])
		t[3] = complex(s[6], s[7])
	}
	for ; j < n; j++ {
		dst[j] = complex(src[2*j], src[2*j+1])
	}
}

// PackPairsGeneric is the reference implementation of PackPairs, kept as
// the property-test oracle.
func PackPairsGeneric(dst []complex128, src []float64, n int) {
	for j := 0; j < n; j++ {
		dst[j] = complex(src[2*j], src[2*j+1])
	}
}

// UnpackPairs unpacks n complex elements of src into n float64 pairs:
// dst[2j], dst[2j+1] = real(src[j]), imag(src[j]). len(dst) must be ≥ 2n.
func UnpackPairs(dst []float64, src []complex128, n int) {
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		s := src[j : j+4 : j+4]
		t := dst[2*j : 2*j+8 : 2*j+8]
		t[0], t[1] = real(s[0]), imag(s[0])
		t[2], t[3] = real(s[1]), imag(s[1])
		t[4], t[5] = real(s[2]), imag(s[2])
		t[6], t[7] = real(s[3]), imag(s[3])
	}
	for ; j < n; j++ {
		dst[2*j], dst[2*j+1] = real(src[j]), imag(src[j])
	}
}

// UnpackPairsGeneric is the reference implementation of UnpackPairs.
func UnpackPairsGeneric(dst []float64, src []complex128, n int) {
	for j := 0; j < n; j++ {
		dst[2*j], dst[2*j+1] = real(src[j]), imag(src[j])
	}
}

// ScatterBlocksPairs is ScatterBlocks with a fused complex→real-pair format
// change: block j of src lands at pair-packed offset dst[2·(dstOff +
// j·dstStride) …]. It is the store inner loop of a c2r pipeline's final
// stage, writing real output rows at cacheline granularity. A pair of reals
// is the bytes of a complex128, so it runs the same generated cached scatter
// as ScatterBlocks where that one does.
func ScatterBlocksPairs(dst []float64, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	if !scatterPairsKernel(dst, src, blocks, blockLen, dstOff, dstStride) {
		scatterBlocksPairsGo(dst, src, blocks, blockLen, dstOff, dstStride)
	}
}

// scatterBlocksPairsGo is ScatterBlocksPairs in Go (see scatterBlocksGo).
func scatterBlocksPairsGo(dst []float64, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	switch blockLen {
	case 4:
		d := dstOff
		for j := 0; j < blocks; j++ {
			s := src[j*4 : j*4+4 : j*4+4]
			t := dst[2*d : 2*d+8 : 2*d+8]
			t[0], t[1] = real(s[0]), imag(s[0])
			t[2], t[3] = real(s[1]), imag(s[1])
			t[4], t[5] = real(s[2]), imag(s[2])
			t[6], t[7] = real(s[3]), imag(s[3])
			d += dstStride
		}
	case 8:
		d := dstOff
		for j := 0; j < blocks; j++ {
			s := src[j*8 : j*8+8 : j*8+8]
			t := dst[2*d : 2*d+16 : 2*d+16]
			t[0], t[1] = real(s[0]), imag(s[0])
			t[2], t[3] = real(s[1]), imag(s[1])
			t[4], t[5] = real(s[2]), imag(s[2])
			t[6], t[7] = real(s[3]), imag(s[3])
			t[8], t[9] = real(s[4]), imag(s[4])
			t[10], t[11] = real(s[5]), imag(s[5])
			t[12], t[13] = real(s[6]), imag(s[6])
			t[14], t[15] = real(s[7]), imag(s[7])
			d += dstStride
		}
	default:
		d := dstOff
		for j := 0; j < blocks; j++ {
			UnpackPairs(dst[2*d:], src[j*blockLen:(j+1)*blockLen], blockLen)
			d += dstStride
		}
	}
}

// ScatterBlocksPairsGeneric is the reference implementation of
// ScatterBlocksPairs, kept as the property-test oracle.
func ScatterBlocksPairsGeneric(dst []float64, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	for j := 0; j < blocks; j++ {
		for v := 0; v < blockLen; v++ {
			c := src[j*blockLen+v]
			o := dstOff + j*dstStride + v
			dst[2*o], dst[2*o+1] = real(c), imag(c)
		}
	}
}
