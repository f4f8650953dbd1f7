//go:build !amd64 || purego

package layout

// Builds without the generated cached scatter run every ScatterBlocks and
// ScatterBlocksPairs call in Go.

func scatterKernel(dst, src []complex128, blocks, blockLen, dstOff, dstStride int) bool {
	return false
}

func scatterPairsKernel(dst []float64, src []complex128, blocks, blockLen, dstOff, dstStride int) bool {
	return false
}
