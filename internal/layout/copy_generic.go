//go:build !amd64 || purego

package layout

// CopyStream is copy on builds without the 512-bit streamed copy.
func CopyStream(dst, src []complex128) { copy(dst, src) }
