// Package cpufeat detects the host CPU's SIMD capabilities at startup so
// the kernel tier can be chosen at runtime: the hand-scheduled AVX2/FMA
// codelets in internal/kernels and the non-temporal store paths in
// internal/layout are only eligible when the hardware (and the OS, via
// XGETBV) actually supports them; layout's cache-line flush picks
// CLFLUSHOPT over CLFLUSH the same way. On non-amd64 architectures, and under
// the `purego` build tag, every feature reports false and the pure-Go
// tier runs everywhere — the same fallback contract the paper's generated
// codelets have against their scalar reference.
package cpufeat

import "strings"

// Features describes the x86 SIMD capabilities relevant to this
// repository's kernels. All fields are false on non-x86 hosts and under
// the purego build tag.
type Features struct {
	// HasAVX reports VEX-encoded 256-bit float support with OS-enabled
	// YMM state (checked through XGETBV, not just the CPUID bit).
	HasAVX bool
	// HasAVX2 reports 256-bit integer/permute extensions (the codelet
	// tier's baseline together with FMA).
	HasAVX2 bool
	// HasFMA reports fused multiply-add (VFMADD*/VFMADDSUB*).
	HasFMA bool
	// HasAVX512F reports the 512-bit foundation with OS-enabled opmask and
	// ZMM state (XCR0 bits 5–7 on top of the AVX check).
	HasAVX512F bool
	// HasAVX512DQ reports the doubleword/quadword extensions the 512-bit
	// codelets need beside F (VXORPD on ZMM, VEXTRACTF64X2).
	HasAVX512DQ bool
	// HasPRFCHW reports PREFETCHW, the prefetch that fetches a line for
	// ownership (CPUID 0x80000001 ECX bit 8; Linux lists it as
	// 3dnowprefetch). The cached store kernels issue it ahead of their
	// destination blocks.
	HasPRFCHW bool
	// HasCLFLUSHOPT reports CLFLUSHOPT, the cache-line flush that is ordered
	// only by fences, not by other flushes and stores (CPUID 7 EBX bit 23).
	// The DRAM copy probe evicts its arrays with it; without it the probe
	// falls back to CLFLUSH, which every x86-64 part has (it came with SSE2).
	HasCLFLUSHOPT bool
}

// X86 holds the detected features of the running CPU. It is populated in
// an arch-specific init and must be treated as read-only.
var X86 Features

// Summary returns a short space-separated feature list for benchmark
// headers and snapshot metadata, e.g.
// "avx avx2 fma avx512f avx512dq prfchw clflushopt";
// "none" when no relevant feature is available (or detection is compiled
// out).
func Summary() string {
	var fs []string
	if X86.HasAVX {
		fs = append(fs, "avx")
	}
	if X86.HasAVX2 {
		fs = append(fs, "avx2")
	}
	if X86.HasFMA {
		fs = append(fs, "fma")
	}
	if X86.HasAVX512F {
		fs = append(fs, "avx512f")
	}
	if X86.HasAVX512DQ {
		fs = append(fs, "avx512dq")
	}
	if X86.HasPRFCHW {
		fs = append(fs, "prfchw")
	}
	if X86.HasCLFLUSHOPT {
		fs = append(fs, "clflushopt")
	}
	if len(fs) == 0 {
		return "none"
	}
	return strings.Join(fs, " ")
}
