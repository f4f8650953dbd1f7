//go:build !amd64 || purego

package layout

// NonTemporalAvailable reports whether the streaming-store tier exists
// on this build. It does not, so the NT entry points are plain aliases.
func NonTemporalAvailable() bool { return false }

// ScatterBlocksNT is ScatterBlocks on builds without streaming stores.
func ScatterBlocksNT(dst, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	ScatterBlocks(dst, src, blocks, blockLen, dstOff, dstStride)
}

// GatherBlocksNT is GatherBlocks on builds without streaming stores.
func GatherBlocksNT(dst, src []complex128, runs, units, blockLen, unitLen, dstStride int, scale float64) {
	GatherBlocks(dst, src, runs, units, blockLen, unitLen, dstStride, scale)
}

// StoreFence is a no-op on builds without streaming stores.
func StoreFence() {}

// EvictAvailable reports whether Evict flushes on this build. It does not:
// the cache-line flush kernel is amd64 assembly.
func EvictAvailable() bool { return false }

// Evict is a no-op on builds without the cache-line flush kernel.
func Evict(b []float64) {}
