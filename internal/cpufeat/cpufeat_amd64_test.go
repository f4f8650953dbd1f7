//go:build amd64 && !purego

package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// The kernel publishes a flag only when the CPU has the feature and the OS
// enabled its state, so every flag it lists must be detected by CPUID +
// XGETBV. The converse is logged, not asserted: a kernel booted with
// clearcpuid=, or a sandbox that filters the flags line, hides features the
// codelets can still use.
func TestDetectionMatchesProcCPUInfo(t *testing.T) {
	flags := procFlags(t)
	for _, c := range []struct {
		flag string
		got  bool
	}{
		{"avx", X86.HasAVX},
		{"avx2", X86.HasAVX2},
		{"fma", X86.HasFMA},
		{"avx512f", X86.HasAVX512F},
		{"avx512dq", X86.HasAVX512DQ},
	} {
		switch {
		case flags[c.flag] && !c.got:
			t.Errorf("%s: listed in /proc/cpuinfo but not detected", c.flag)
		case c.got && !flags[c.flag]:
			t.Logf("%s: detected but not listed in /proc/cpuinfo", c.flag)
		}
	}
}

// PREFETCHW needs no OS-enabled state, so the kernel's 3dnowprefetch flag is
// the CPUID bit itself and the two must agree both ways.
func TestPRFCHWMatchesProcCPUInfo(t *testing.T) {
	if listed := procFlags(t)["3dnowprefetch"]; listed != X86.HasPRFCHW {
		t.Fatalf("3dnowprefetch listed in /proc/cpuinfo = %v, HasPRFCHW = %v", listed, X86.HasPRFCHW)
	}
}

// CLFLUSHOPT, like PREFETCHW, needs no OS-enabled state: the kernel lists
// clflushopt exactly when the CPUID bit is set.
func TestCLFLUSHOPTMatchesProcCPUInfo(t *testing.T) {
	if listed := procFlags(t)["clflushopt"]; listed != X86.HasCLFLUSHOPT {
		t.Fatalf("clflushopt listed in /proc/cpuinfo = %v, HasCLFLUSHOPT = %v", listed, X86.HasCLFLUSHOPT)
	}
}

// procFlags returns the first CPU's flags from /proc/cpuinfo, skipping the
// test where the file or its flags line is missing.
func procFlags(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	return flags
}
