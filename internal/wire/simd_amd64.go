//go:build amd64 && !purego

package wire

import "repro/internal/cpufeat"

// hostSIMD is whether this CPU runs the AVX2 tier of the number codec.
var hostSIMD = cpufeat.X86.HasAVX2

// The AVX2 kernels, in codec_amd64.s.

//go:noescape
func scanRunAVX2(p *byte, avail int, dst *uint64, max int, meta *uint32) int

//go:noescape
func formatBatchAVX2(dst *byte, digits *uint32, meta *uint64, n int, layouts *[layoutRows][64]byte) int
