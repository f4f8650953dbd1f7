//go:build amd64 && !purego

package cpufeat

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled state mask).
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	// AVX (and everything above it) is only usable when the OS saves and
	// restores YMM state: XGETBV(0) must report both XMM (bit 1) and YMM
	// (bit 2) enabled.
	// AVX-512 additionally needs the opmask, ZMM0–15 upper-half and ZMM16–31
	// state components (bits 5–7).
	osYMM, osZMM := false, false
	if ecx1&cpuidOSXSAVE != 0 {
		lo, _ := xgetbv()
		osYMM = lo&0x6 == 0x6
		osZMM = lo&0xE6 == 0xE6
	}
	X86.HasAVX = osYMM && ecx1&cpuidAVX != 0
	X86.HasFMA = osYMM && ecx1&cpuidFMA != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		const (
			cpuidAVX2       = 1 << 5
			cpuidAVX512F    = 1 << 16
			cpuidAVX512DQ   = 1 << 17
			cpuidCLFLUSHOPT = 1 << 23
		)
		if X86.HasAVX {
			X86.HasAVX2 = ebx7&cpuidAVX2 != 0
			X86.HasAVX512F = osZMM && ebx7&cpuidAVX512F != 0
			X86.HasAVX512DQ = X86.HasAVX512F && ebx7&cpuidAVX512DQ != 0
		}
		X86.HasCLFLUSHOPT = ebx7&cpuidCLFLUSHOPT != 0
	}
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x80000001 {
		_, _, ecxExt, _ := cpuid(0x80000001, 0)
		const cpuidPRFCHW = 1 << 8
		X86.HasPRFCHW = ecxExt&cpuidPRFCHW != 0
	}
}
