//go:build !amd64 || purego

package layout

// NonTemporalAvailable reports whether the streaming-store tier exists
// on this build. It does not, so the NT entry points are plain aliases.
func NonTemporalAvailable() bool { return false }

// ScatterBlocksNT is ScatterBlocks on builds without streaming stores.
func ScatterBlocksNT(dst, src []complex128, blocks, blockLen, dstOff, dstStride int) {
	ScatterBlocks(dst, src, blocks, blockLen, dstOff, dstStride)
}
