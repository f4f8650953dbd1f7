//go:build !amd64 || purego

package wire

// hostSIMD is false: this build has only the generic tier.
const hostSIMD = false

func scanRunAVX2(p *byte, avail int, dst *uint64, max int, meta *uint32) int {
	panic("wire: no SIMD tier in this build")
}

func formatBatchAVX2(dst *byte, digits *uint32, meta *uint64, n int, layouts *[layoutRows][64]byte) int {
	panic("wire: no SIMD tier in this build")
}
